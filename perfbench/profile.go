package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// modPath is the module whose packages are the layers.
const modPath = "github.com/accnet/acc"

// cpuSample is one profile sample: its stack, innermost frame first, and
// its CPU nanoseconds.
type cpuSample struct {
	stack []string
	ns    int64
}

// profiler wraps runtime/pprof's CPU profiler around one traced span.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and folds it into per-layer self time.
func (p *profiler) stop() (*layerShares, error) {
	pprof.StopCPUProfile()
	samples, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return foldSamples(samples), nil
}

// layerShares is a folded CPU profile: self nanoseconds per layer.
type layerShares struct {
	ns      map[string]int64
	total   int64
	mapNS   map[string]int64 // runtime map-lookup time charged to each layer
	samples int
}

// frac is a layer's share of all profiled CPU time.
func (s *layerShares) frac(layer string) float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.ns[layer]) / float64(s.total)
}

// foldSamples charges each sample to the innermost frame that belongs to
// a repo package; standard-library frames are charged to their repo
// caller, and samples with no repo frame at all go to "runtime".
func foldSamples(samples []cpuSample) *layerShares {
	s := &layerShares{ns: map[string]int64{}, mapNS: map[string]int64{}}
	for _, smp := range samples {
		layer := foldStack(smp.stack)
		s.ns[layer] += smp.ns
		s.total += smp.ns
		s.samples++
		if len(smp.stack) > 0 && strings.HasPrefix(smp.stack[0], "runtime.map") {
			s.mapNS[layer] += smp.ns
		}
	}
	return s
}

// foldStack returns the layer a stack (innermost first) is charged to.
func foldStack(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// layerOf maps a function name to its repo layer: the package directly
// under internal/ (internal/snap/codec is "snap"), "other" for the rest of
// the module (commands, this benchmark), "" for code outside the module.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	rest, ok := strings.CutPrefix(pkg, modPath+"/")
	if !ok {
		return ""
	}
	if layer, ok := strings.CutPrefix(rest, "internal/"); ok {
		layer, _, _ = strings.Cut(layer, "/")
		return layer
	}
	return "other"
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes and
// returns each sample's stack (innermost first, inlined frames expanded)
// and its last sample value (CPU nanoseconds).
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []rawSample
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fids []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fids
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, lid := range s.locs {
			for _, fid := range locs[lid] {
				if si := funcs[fid]; si >= 0 && si < int64(len(strs)) {
					stack = append(stack, strs[si])
				}
			}
		}
		out = append(out, cpuSample{stack: stack, ns: s.values[len(s.values)-1]})
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either as one
// unpacked value (b == nil) or as a packed run.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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
