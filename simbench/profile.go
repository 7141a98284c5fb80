package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the CPU sampling rate of traced runs. The runtime's
// default of 100 Hz yields only ~150 samples from a 1.5 s run, too few
// for stable layer shares.
const profileHz = 500

// profile runs fn under the CPU profiler and returns the profile's
// samples.
func profile(fn func() error) ([]sample, error) {
	var buf bytes.Buffer
	// Setting the rate first makes it stick: StartCPUProfile's own
	// attempt to set 100 Hz is refused (the runtime prints a one-line
	// notice to stderr) and the profile records the rate set here.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return decodeProfile(buf.Bytes())
}

// sample is one CPU-profile sample: its count and its call stack as
// function names, innermost first (inlined callees before their
// callers).
type sample struct {
	count int64
	stack []string
}

// layerOf names the repository layer a function belongs to: the package
// under holdcsim/internal, or "bench" for this benchmark's own code. ok
// is false for functions outside the repository (the Go runtime and the
// standard library).
func layerOf(fn string) (layer string, ok bool) {
	if rest, found := strings.CutPrefix(fn, "holdcsim/internal/"); found {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i], true
		}
		return rest, true
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	return "", false
}

// classify charges a stack to its innermost repository frame, so runtime
// work (map hashing, allocation, GC assists) counts against the repo code
// that called it. A stack with no repository frame is "runtime".
func classify(stack []string) string {
	for _, fn := range stack {
		if layer, ok := layerOf(fn); ok {
			return layer
		}
	}
	return "runtime"
}

// layerCounts sums sample counts per layer.
func layerCounts(samples []sample) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range samples {
		out[classify(s.stack)] += s.count
	}
	return out
}

// decodeProfile parses a gzip-compressed pprof protobuf (the format
// runtime/pprof writes) into samples. Only the fields needed to name
// each sample's stack are read: Profile.sample (2), .location (4),
// .function (5) and .string_table (6); Sample.location_id (1) and
// .value (2); Location.id (1) and .line (4); Line.function_id (1);
// Function.id (1) and .name (2).
func decodeProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(v, b, &s.locs)
				case 2:
					return repeated(v, b, &s.values)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, sample{count: int64(s.values[0]), stack: stack})
	}
	return out, nil
}

// fields walks the protobuf message in b, calling fn with each field's
// number and either its integer value (varint and fixed-width wire
// types) or its bytes (length-delimited wire type).
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated integer field to dst, in either its
// unpacked form (one varint, v) or its packed form (varints in b).
func repeated(v uint64, b []byte, dst *[]uint64) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
