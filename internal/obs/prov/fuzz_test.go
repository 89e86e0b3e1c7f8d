package prov

import (
	"bytes"
	"testing"
)

// sampleStream builds a small but representative stream covering every
// lifecycle stage, an epoch snapshot and a ring-drop count.
func sampleStream() *Stream {
	tbl := func(base uint32) []uint32 {
		t := make([]uint32, 16)
		for i := range t {
			t[i] = base >> uint(i)
		}
		return t
	}
	return &Stream{
		TraceID: "deadbeefcafebabe",
		Dropped: 3,
		Records: []Record{
			{Op: OpEpochRoll, Epoch: 1, Cycle: 2000, ID: 11, V1: 1},
			{Op: OpSlotBirth, Epoch: 1, Cycle: 2100, Line: 0x40, ID: 12},
			{Op: OpSlotExtend, Aux: EncodeDir(1), Epoch: 1, Cycle: 2150, Line: 0x41, ID: 13, V1: 2},
			{Op: OpDecision, Aux: DecisionAux(false, 1), Epoch: 1, Cycle: 2150, Line: 0x41, ID: 14, V1: 2, V2: 1, V3: PackWitness(9, 30)},
			{Op: OpNominate, Epoch: 1, Cycle: 2150, Line: 0x42, ID: 15, V1: 1, V2: 14, V3: 2},
			{Op: OpIssue, Epoch: 1, Cycle: 2160, Line: 0x42, ID: 16, V1: 1, V2: 2400},
			{Op: OpInstall, Epoch: 1, Cycle: 2402, Line: 0x42, ID: 17, V1: 1},
			{Op: OpPBHit, Epoch: 1, Cycle: 2500, Line: 0x42, ID: 18, V1: 1},
			{Op: OpDrop, Aux: 2, Thread: 1, Epoch: 1, Cycle: 2600, Line: 0x99, ID: 19, V1: 4},
			{Op: OpWasted, Aux: 1, Epoch: 1, Cycle: 2700, Line: 0x77, ID: 20, V1: 2},
		},
		Epochs: []EpochSnap{{
			Epoch: 1, Cycle: 2000,
			UpCurr: tbl(1600), UpNext: tbl(1800), DownCurr: tbl(400), DownNext: tbl(300),
		}},
	}
}

// equalStreams compares two streams treating nil and empty slices as
// equal.
func equalStreams(a, b *Stream) bool {
	if a.TraceID != b.TraceID || a.Dropped != b.Dropped ||
		len(a.Records) != len(b.Records) || len(a.Epochs) != len(b.Epochs) {
		return false
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			return false
		}
	}
	eqTable := func(x, y []uint32) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	for i := range a.Epochs {
		x, y := a.Epochs[i], b.Epochs[i]
		if x.Thread != y.Thread || x.Epoch != y.Epoch || x.Cycle != y.Cycle ||
			!eqTable(x.UpCurr, y.UpCurr) || !eqTable(x.UpNext, y.UpNext) ||
			!eqTable(x.DownCurr, y.DownCurr) || !eqTable(x.DownNext, y.DownNext) {
			return false
		}
	}
	return true
}

// FuzzProvCodec feeds arbitrary bytes to the binary stream decoder.
// Malformed input must fail cleanly (no panic, no unbounded
// allocation), and any input that does decode must survive a binary
// re-encode/decode round trip unchanged — the property the farm's
// sidecar store and `asdfarm explain` rest on.
func FuzzProvCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(binaryMagic))
	f.Add([]byte("not a provenance stream"))
	f.Add([]byte(binaryMagic + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")) // absurd trace-id length
	var seed bytes.Buffer
	if err := EncodeBinary(&seed, sampleStream()); err != nil {
		f.Fatalf("encode seed: %v", err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-3]) // truncated tail

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeBinary(bytes.NewReader(data))
		if err != nil {
			return // malformed input is expected to fail, just not panic
		}
		var bin bytes.Buffer
		if err := EncodeBinary(&bin, s); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		s2, err := DecodeBinary(&bin)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !equalStreams(s, s2) {
			t.Fatalf("binary round trip diverged:\n%+v\nvs\n%+v", s, s2)
		}
	})
}
