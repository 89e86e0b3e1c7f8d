package trace

import (
	"fmt"

	"asdsim/internal/mem"
	"asdsim/internal/stats"
)

// Analysis summarises a trace: operation mix, footprint, instruction
// intensity, and the line-stride distribution (the raw material the ASD
// prefetcher feeds on).
type Analysis struct {
	Records      uint64
	Instructions uint64
	Loads        uint64
	Stores       uint64
	// UniqueLines is the number of distinct cache lines touched.
	UniqueLines uint64
	// FootprintBytes is UniqueLines * line size.
	FootprintBytes uint64
	// MeanGap is the average compute-instruction gap between references.
	MeanGap float64
	// LineStrides histograms |delta| between consecutive references'
	// lines, clamped into [1,16]; +1 strides are the prefetcher's food.
	LineStrides *stats.Histogram
	// SameLine counts consecutive references to the same line.
	SameLine uint64
	// UpStrides and DownStrides count +1 and -1 line transitions.
	UpStrides   uint64
	DownStrides uint64
}

// Analyze drains src (up to max records; all if max <= 0) and summarises
// it.
func Analyze(src Source, max int) Analysis {
	a := Analysis{LineStrides: stats.NewHistogram(16)}
	seen := make(map[mem.Line]struct{})
	var prev mem.Line
	var havePrev bool
	var gapSum uint64
	for max <= 0 || a.Records < uint64(max) {
		rec, ok := src.Next()
		if !ok {
			break
		}
		a.Records++
		a.Instructions += uint64(rec.Gap) + 1
		gapSum += uint64(rec.Gap)
		if rec.Op == Store {
			a.Stores++
		} else {
			a.Loads++
		}
		line := mem.LineOf(rec.Addr)
		seen[line] = struct{}{}
		if havePrev {
			switch {
			case line == prev:
				a.SameLine++
			case line == prev+1:
				a.UpStrides++
				a.LineStrides.Observe(1)
			case line == prev-1:
				a.DownStrides++
				a.LineStrides.Observe(1)
			default:
				d := int64(line) - int64(prev)
				if d < 0 {
					d = -d
				}
				a.LineStrides.Observe(int(min64(d, 16)))
			}
		}
		prev = line
		havePrev = true
	}
	a.UniqueLines = uint64(len(seen))
	a.FootprintBytes = a.UniqueLines * mem.LineSize
	if a.Records > 0 {
		a.MeanGap = float64(gapSum) / float64(a.Records)
	}
	return a
}

func min64(a int64, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// String renders a multi-line human-readable summary.
func (a Analysis) String() string {
	var sb []byte
	add := func(format string, args ...interface{}) {
		sb = append(sb, fmt.Sprintf(format, args...)...)
	}
	add("records:       %d (%d loads, %d stores)\n", a.Records, a.Loads, a.Stores)
	add("instructions:  %d (mean gap %.1f)\n", a.Instructions, a.MeanGap)
	add("footprint:     %d lines (%.1f MB)\n", a.UniqueLines, float64(a.FootprintBytes)/(1<<20))
	if a.Records > 1 {
		add("transitions:   %.1f%% same-line, %.1f%% +1, %.1f%% -1 (of %d)\n",
			100*float64(a.SameLine)/float64(a.Records-1),
			100*float64(a.UpStrides)/float64(a.Records-1),
			100*float64(a.DownStrides)/float64(a.Records-1),
			a.Records-1)
	}
	return string(sb)
}
