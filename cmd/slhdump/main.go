// Command slhdump analyses a synthetic benchmark's trace and prints its
// access statistics and the Stream Length Histogram the ASD hardware
// would gather from its post-cache miss stream.
//
// Usage:
//
//	slhdump -bench GemsFDTD -records 500000 [-seed 1]
//	slhdump -bench GemsFDTD -epochs             # per-epoch LHT timeline
//
// -epochs attaches a provenance recorder to the replay engine and
// prints one line per SLH epoch roll: the epoch index, the roll cycle,
// and the ascending/descending LHTs the roll installed for the next
// epoch — the table each of that epoch's prefetch decisions consulted.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"asdsim/internal/cache"
	"asdsim/internal/core"
	"asdsim/internal/mem"
	"asdsim/internal/obs/prov"
	"asdsim/internal/report"
	"asdsim/internal/trace"
	"asdsim/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark name")
	records := flag.Int("records", 500_000, "records to analyse")
	seed := flag.Uint64("seed", 1, "workload seed")
	epochs := flag.Bool("epochs", false, "print the per-epoch SLH/LHT snapshot timeline")
	flag.Parse()

	if *bench == "" {
		fmt.Fprintln(os.Stderr, "slhdump: provide -bench")
		os.Exit(2)
	}
	prof, err := workload.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	src, err := workload.NewGenerator(prof, *seed, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	recs := trace.Collect(trace.Limit(src, *records), 0)
	fmt.Println("--- trace statistics ---")
	fmt.Print(trace.Analyze(recs))

	// Replay through the cache hierarchy and feed the MC-level miss
	// stream to an ASD engine, as the memory controller would see it.
	h := cache.NewHierarchy(cache.DefaultConfig())
	eng := core.NewEngine(core.DefaultConfig())
	var rec *prov.Recorder
	if *epochs {
		rec = prov.New(prov.Options{TraceID: "slhdump"})
		eng.SetProv(rec, 0)
	}
	now := uint64(0)
	misses := 0
	for _, rec := range recs {
		line := mem.LineOf(rec.Addr)
		res := h.Access(line, rec.Op == trace.Store, now)
		if res.Level == cache.Memory {
			h.Fill(line, rec.Op == trace.Store)
			now += 120 // nominal MC read spacing
			eng.ObserveRead(line, now)
			misses++
		}
	}
	fmt.Printf("\n--- memory-controller view (%d reads after cache filtering) ---\n", misses)
	report.Histogram(os.Stdout, "Stream Length Histogram (by streams, filter approximation)", eng.ApproxLengths, 50)
	up := eng.SLHUp().Histogram()
	if up.Total() > 0 {
		report.Histogram(os.Stdout, "Current-epoch ascending SLH (by reads, LHTcurr)", up, 50)
	}
	if rec != nil {
		printEpochTimeline(rec.Stream())
	}
}

// printEpochTimeline renders every recorded SLH epoch roll: the LHTs
// the roll installed (the Next tables — these decide the epoch that
// begins) with trailing zero buckets elided.
func printEpochTimeline(st *prov.Stream) {
	fmt.Printf("\n--- SLH epoch timeline (%d rolls) ---\n", len(st.Epochs))
	if len(st.Epochs) == 0 {
		fmt.Println("no epoch completed; lower the epoch length or raise -records")
		return
	}
	for _, e := range st.Epochs {
		fmt.Printf("epoch %3d @cycle %-10d up=%s down=%s\n",
			e.Epoch, e.Cycle, fmtLHT(e.UpNext), fmtLHT(e.DownNext))
	}
}

// fmtLHT prints an LHT with trailing zero buckets collapsed.
func fmtLHT(t []uint32) string {
	n := len(t)
	for n > 0 && t[n-1] == 0 {
		n--
	}
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", t[i])
	}
	if n < len(t) {
		if n > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "0×%d", len(t)-n)
	}
	b.WriteByte(']')
	return b.String()
}
