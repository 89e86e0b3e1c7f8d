package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileLayers are the layers a CPU profile's self time is split
// into, by package (see layerOfPackage).
var profileLayers = []string{"workload", "cpu", "cache", "prefetch", "stream", "slh", "core",
	"mc", "dram", "sim", "obs", "farm", "runtime", "other"}

// layerPackages maps package paths (and their subpackages) to layers.
var layerPackages = []struct{ pkg, layer string }{
	{"asdsim/internal/workload", "workload"},
	{"asdsim/internal/trace", "workload"},
	{"asdsim/internal/cpu", "cpu"},
	{"asdsim/internal/cache", "cache"},
	{"asdsim/internal/prefetch", "prefetch"},
	{"asdsim/internal/stream", "stream"},
	{"asdsim/internal/slh", "slh"},
	{"asdsim/internal/core", "core"},
	{"asdsim/internal/mc", "mc"},
	{"asdsim/internal/dram", "dram"},
	{"asdsim/internal/sim", "sim"},
	{"asdsim/internal/obs", "obs"},
	{"asdsim/internal/farm", "farm"},
	{"asdsim/internal/cluster", "farm"},
	{"net/http", "farm"},
	{"encoding/json", "farm"},
	{"crypto/sha256", "farm"},
	{"runtime", "runtime"},
	{"internal/runtime", "runtime"},
}

// probeMethod is the benchmark's own probe; samples under it are not
// the program's time and are left out of the shares.
const probeMethod = ".(*calibrator).probe"

// layerOfPackage returns the layer of a package path; the profiled
// process's main package (the benchmark's own, when it profiles
// itself) goes to mainLayer.
func layerOfPackage(pkg, mainLayer string) string {
	if pkg == "main" || pkg == "asdsim/perfbench" {
		return mainLayer
	}
	for _, lp := range layerPackages {
		if pkg == lp.pkg || strings.HasPrefix(pkg, lp.pkg+"/") {
			return lp.layer
		}
	}
	return "other"
}

// packageOf extracts the package path from a symbol name such as
// "asdsim/internal/mc.(*ring[go.shape.*uint8]).push".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerShares decodes gzipped pprof CPU profiles and returns each
// layer's share of their combined self time in percent, excluding
// samples taken in the benchmark's probe.
func layerShares(profiles [][]byte, mainLayer string) (map[string]float64, error) {
	byLayer := map[string]int64{}
	var total int64
	for _, gz := range profiles {
		p, err := decodeProfile(gz)
		if err != nil {
			return nil, err
		}
		for l, v := range p.selfByLayer(mainLayer) {
			byLayer[l] += v
			total += v
		}
	}
	shares := make(map[string]float64, len(profileLayers))
	for _, l := range profileLayers {
		if total > 0 {
			shares[l] = 100 * float64(byLayer[l]) / float64(total)
		}
	}
	return shares, nil
}

// selfByLayer sums sample values by the layer of each sample's leaf
// function, skipping samples under the benchmark's probe.
func (p *profile) selfByLayer(mainLayer string) map[string]int64 {
	byLayer := map[string]int64{}
	for _, s := range p.samples {
		if len(s.locs) == 0 {
			continue
		}
		if p.under(s, probeMethod) {
			continue
		}
		leaf := "?"
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			leaf = fns[0] // the innermost of any inlined frames
		}
		byLayer[layerOfPackage(packageOf(leaf), mainLayer)] += s.value
	}
	return byLayer
}

// under reports whether any frame of s is a function whose name ends
// in suffix.
func (p *profile) under(s profSample, suffix string) bool {
	for _, id := range s.locs {
		for _, name := range p.locFuncs[id] {
			if strings.HasSuffix(name, suffix) {
				return true
			}
		}
	}
	return false
}

// profile is the part of a pprof profile layerShares needs.
type profile struct {
	samples []profSample
	// locFuncs maps a location id to its function names, innermost
	// inlined frame first.
	locFuncs map[uint64][]string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value (CPU nanoseconds)
}

// decodeProfile parses the profile.proto wire format written by
// runtime/pprof: samples (field 2), locations (4), functions (5) and
// the string table (6).
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var strs []string
	funcName := map[uint64]int64{} // function id -> string index
	locFn := map[uint64][]uint64{} // location id -> function ids
	p := &profile{locFuncs: map[uint64][]string{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []uint64
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					vals = appendVarints(vals, w, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFn[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for loc, fns := range locFn {
		for _, f := range fns {
			name := ""
			if i := funcName[f]; i >= 0 && int(i) < len(strs) {
				name = strs[i]
			}
			p.locFuncs[loc] = append(p.locFuncs[loc], name)
		}
	}
	return p, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
