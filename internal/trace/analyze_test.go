package trace

import (
	"strings"
	"testing"

	"asdsim/internal/mem"
)

func lineRec(line int, op Op, gap uint32) Record {
	return Record{Gap: gap, Op: op, Addr: mem.Addr(line) * mem.LineSize}
}

func TestAnalyzeBasics(t *testing.T) {
	recs := []Record{
		lineRec(10, Load, 4),
		lineRec(11, Load, 4),  // +1
		lineRec(11, Store, 4), // same line
		lineRec(10, Load, 4),  // -1
		lineRec(50, Load, 4),  // far jump
	}
	a := Analyze(NewSliceSource(recs), 0)
	if a.Records != 5 || a.Loads != 4 || a.Stores != 1 {
		t.Fatalf("mix: %+v", a)
	}
	if a.Instructions != 25 {
		t.Errorf("Instructions = %d, want 25", a.Instructions)
	}
	if a.MeanGap != 4 {
		t.Errorf("MeanGap = %v", a.MeanGap)
	}
	if a.UniqueLines != 3 || a.FootprintBytes != 3*mem.LineSize {
		t.Errorf("footprint: %d lines", a.UniqueLines)
	}
	if a.UpStrides != 1 || a.DownStrides != 1 || a.SameLine != 1 {
		t.Errorf("transitions: up=%d down=%d same=%d", a.UpStrides, a.DownStrides, a.SameLine)
	}
	// The far jump (39 lines) clamps into the 16 bucket.
	if a.LineStrides.Count(16) != 1 {
		t.Errorf("jump not recorded: %v", a.LineStrides)
	}
}

func TestAnalyzeMaxRecords(t *testing.T) {
	recs := make([]Record, 10)
	for i := range recs {
		recs[i] = lineRec(i, Load, 0)
	}
	a := Analyze(NewSliceSource(recs), 4)
	if a.Records != 4 {
		t.Errorf("Records = %d, want 4", a.Records)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(NewSliceSource(nil), 0)
	if a.Records != 0 || a.MeanGap != 0 {
		t.Errorf("empty analysis: %+v", a)
	}
	if s := a.String(); !strings.Contains(s, "records:") {
		t.Errorf("String() = %q", s)
	}
}

func TestAnalyzeString(t *testing.T) {
	recs := []Record{lineRec(1, Load, 0), lineRec(2, Load, 0)}
	s := Analyze(NewSliceSource(recs), 0).String()
	for _, want := range []string{"records:", "instructions:", "footprint:", "transitions:"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in %q", want, s)
		}
	}
}
