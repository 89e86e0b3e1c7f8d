package prov

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"unicode/utf8"

	"asdsim/internal/mem"
)

// The binary codec is the compact at-rest form of a Stream: a magic
// header, then uvarint/zigzag-varint fields in record order. It exists
// for the farm's per-run sidecar files and round-trips exactly
// (FuzzProvCodec).

// binaryMagic leads every binary stream; bump the final digit on any
// incompatible layout change.
const binaryMagic = "ASDPROV1"

// Decode limits: a well-formed stream never exceeds these (the recorder
// bounds its ring and epoch list), so anything larger is corruption and
// must not be trusted with a large allocation.
const (
	maxDecodeRecords = 1 << 22
	maxDecodeEpochs  = 1 << 18
	maxDecodeTable   = 1 << 12
	maxDecodeTrace   = 1 << 10
)

// EncodeBinary writes s in the binary format.
func EncodeBinary(w io.Writer, s *Stream) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		bw.Write(buf[:binary.PutUvarint(buf[:], v)])
	}
	putI := func(v int64) {
		bw.Write(buf[:binary.PutVarint(buf[:], v)])
	}
	putU(uint64(len(s.TraceID)))
	bw.WriteString(s.TraceID)
	putU(s.Dropped)
	putU(uint64(len(s.Records)))
	for _, r := range s.Records {
		bw.WriteByte(byte(r.Op))
		bw.WriteByte(r.Aux)
		putU(uint64(uint32(r.Thread)))
		putU(uint64(r.Epoch))
		putU(r.Cycle)
		putU(uint64(r.Line))
		putU(r.ID)
		putI(r.V1)
		putI(r.V2)
		putI(r.V3)
	}
	putU(uint64(len(s.Epochs)))
	putTable := func(t []uint32) {
		putU(uint64(len(t)))
		for _, v := range t {
			putU(uint64(v))
		}
	}
	for _, e := range s.Epochs {
		putU(uint64(uint32(e.Thread)))
		putU(uint64(e.Epoch))
		putU(e.Cycle)
		putTable(e.UpCurr)
		putTable(e.UpNext)
		putTable(e.DownCurr)
		putTable(e.DownNext)
	}
	return bw.Flush()
}

// DecodeBinary reads one binary stream. It validates the magic and
// bounds every count before allocating, so arbitrary input fails with
// an error rather than a panic or an absurd allocation.
func DecodeBinary(r io.Reader) (*Stream, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("prov: decode: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("prov: decode: bad magic %q", magic)
	}
	getU := func() (uint64, error) { return binary.ReadUvarint(br) }
	getI := func() (int64, error) { return binary.ReadVarint(br) }
	getN := func(limit uint64, what string) (uint64, error) {
		n, err := getU()
		if err != nil {
			return 0, fmt.Errorf("prov: decode %s count: %w", what, err)
		}
		if n > limit {
			return 0, fmt.Errorf("prov: decode: %s count %d exceeds limit %d", what, n, limit)
		}
		return n, nil
	}

	s := &Stream{}
	tn, err := getN(maxDecodeTrace, "trace-id")
	if err != nil {
		return nil, err
	}
	tid := make([]byte, tn)
	if _, err := io.ReadFull(br, tid); err != nil {
		return nil, fmt.Errorf("prov: decode trace id: %w", err)
	}
	s.TraceID = string(tid)
	// Trace IDs are hex strings (or plain labels), so invalid UTF-8
	// marks a corrupt stream; JSON output would mangle such bytes.
	if !utf8.ValidString(s.TraceID) {
		return nil, fmt.Errorf("prov: decode: trace id is not valid UTF-8")
	}
	if s.Dropped, err = getU(); err != nil {
		return nil, fmt.Errorf("prov: decode dropped: %w", err)
	}

	nRec, err := getN(maxDecodeRecords, "record")
	if err != nil {
		return nil, err
	}
	s.Records = make([]Record, 0, min(nRec, 4096))
	for i := uint64(0); i < nRec; i++ {
		var rec Record
		op, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("prov: decode record %d: %w", i, err)
		}
		if op >= byte(numOps) {
			return nil, fmt.Errorf("prov: decode record %d: bad op %d", i, op)
		}
		rec.Op = Op(op)
		if rec.Aux, err = br.ReadByte(); err != nil {
			return nil, fmt.Errorf("prov: decode record %d: %w", i, err)
		}
		// Wire order matches EncodeBinary: thread, epoch, cycle, line,
		// id, then the three signed values.
		var thread, epoch, line uint64
		for _, dst := range []*uint64{&thread, &epoch, &rec.Cycle, &line, &rec.ID} {
			if *dst, err = getU(); err != nil {
				return nil, fmt.Errorf("prov: decode record %d: %w", i, err)
			}
		}
		rec.Thread = int32(uint32(thread))
		rec.Epoch = uint32(epoch)
		rec.Line = mem.Line(line)
		for _, dst := range []*int64{&rec.V1, &rec.V2, &rec.V3} {
			if *dst, err = getI(); err != nil {
				return nil, fmt.Errorf("prov: decode record %d: %w", i, err)
			}
		}
		s.Records = append(s.Records, rec)
	}

	nEp, err := getN(maxDecodeEpochs, "epoch")
	if err != nil {
		return nil, err
	}
	getTable := func() ([]uint32, error) {
		n, err := getN(maxDecodeTable, "table")
		if err != nil {
			return nil, err
		}
		t := make([]uint32, n)
		for i := range t {
			v, err := getU()
			if err != nil {
				return nil, err
			}
			t[i] = uint32(v)
		}
		return t, nil
	}
	s.Epochs = make([]EpochSnap, 0, min(nEp, 1024))
	for i := uint64(0); i < nEp; i++ {
		var e EpochSnap
		var thread, epoch uint64
		if thread, err = getU(); err != nil {
			return nil, fmt.Errorf("prov: decode epoch %d: %w", i, err)
		}
		if epoch, err = getU(); err != nil {
			return nil, fmt.Errorf("prov: decode epoch %d: %w", i, err)
		}
		if e.Cycle, err = getU(); err != nil {
			return nil, fmt.Errorf("prov: decode epoch %d: %w", i, err)
		}
		e.Thread = int32(uint32(thread))
		e.Epoch = uint32(epoch)
		for _, dst := range []*[]uint32{&e.UpCurr, &e.UpNext, &e.DownCurr, &e.DownNext} {
			if *dst, err = getTable(); err != nil {
				return nil, fmt.Errorf("prov: decode epoch %d: %w", i, err)
			}
		}
		s.Epochs = append(s.Epochs, e)
	}
	return s, nil
}
