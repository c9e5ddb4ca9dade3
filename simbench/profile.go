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

// cpuLayers are the buckets a CPU profile's samples fall into, by the
// package of each sample's leaf frame. Packages under uno/internal/ that
// are not named here go to "other"; the benchmark's own frames (package
// main: the decorators and observers) go to "bench"; everything outside
// uno/ (the Go runtime, GC, the standard library) goes to "runtime".
var cpuLayers = []string{"eventq", "netsim", "transport", "core", "topo", "ec", "harness", "other", "bench", "runtime"}

// layerOf maps a function symbol to its bucket.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "uno/internal/")
	if !ok {
		if strings.HasPrefix(fn, "uno/") || strings.HasPrefix(fn, "uno.") {
			return "other"
		}
		return "runtime"
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, l := range cpuLayers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// cpuSplit is CPU time from profiles: by layer of the leaf frame, and
// the part spent in the garbage collector.
type cpuSplit struct {
	layers map[string]int64
	gc     int64
}

// isGC reports whether a frame belongs to the garbage collector: its
// background mark workers, mutator assists, sweeping and scavenging.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// add parses a gzipped pprof CPU profile, as runtime/pprof writes it, and
// adds each sample's CPU time to the bucket of its leaf frame (the
// innermost inlined function of the sample's first location), and to gc
// when any frame of the sample is the collector's.
func (c *cpuSplit) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]int64{}    // function id -> string table index
		strs      []string
		valueIdx  = -1 // index of the cpu/nanoseconds value
		typeNames [][2]int64
	)
	err = fields(raw, func(f int, wire int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			var t [2]int64
			err := fields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			typeNames = append(typeNames, t)
			return err
		case 2: // sample
			var s sample
			err := fields(b, func(f, wire int, v uint64, b []byte) error {
				switch f {
				case 1:
					return varints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return fields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for i, t := range typeNames {
		if t[0] >= 0 && t[0] < int64(len(strs)) && t[1] >= 0 && t[1] < int64(len(strs)) &&
			strs[t[0]] == "cpu" && strs[t[1]] == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return errors.New("cpu profile: no cpu/nanoseconds sample type")
	}
	name := func(fn uint64) string {
		if ni, ok := funcName[fn]; ok && ni >= 0 && ni < int64(len(strs)) {
			return strs[ni]
		}
		return ""
	}
	if c.layers == nil {
		c.layers = map[string]int64{}
	}
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return errors.New("cpu profile: sample without a cpu value")
		}
		v := s.values[valueIdx]
		leaf := ""
		if len(s.locs) > 0 && len(locFuncs[s.locs[0]]) > 0 {
			leaf = name(locFuncs[s.locs[0]][0])
		}
		c.layers[layerOf(leaf)] += v
		gc := false
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				gc = gc || isGC(name(fn))
			}
		}
		if gc {
			c.gc += v
		}
	}
	return nil
}

// fields walks the protobuf fields of msg, calling visit with the field
// number, wire type, varint value (wire type 0) or payload (wire type 2).
// Fixed-width fields are skipped.
func fields(msg []byte, visit func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := visit(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field in either encoding: one value
// (wire type 0) or a packed run (wire type 2).
func varints(wire int, v uint64, b []byte, each func(uint64)) error {
	if wire == 0 {
		each(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		each(x)
		b = b[n:]
	}
	return nil
}
