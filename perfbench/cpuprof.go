package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"time"
)

// cpuByFunc reads a runtime/pprof CPU profile and attributes each
// sample's CPU time to the innermost a4nn frame on its stack (the
// function of a4nn's own code nearest the leaf, inlined frames
// included). Time in the standard library or the runtime under an a4nn
// function thus counts toward that function — a commons write's
// syscalls count as commons — and samples with no a4nn frame (GC
// workers, the scheduler) fall under "other".
//
// Only the fields needed for that are decoded from the profile.proto
// wire format: sample (2), location (4), function (5), string_table (6).
func cpuByFunc(profile []byte) (map[string]time.Duration, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcs   = map[uint64]uint64{}   // function id → name string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbVarints(s.locs, v, b)
				case 2:
					s.values = pbVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	name := func(fn uint64) string {
		if i := funcs[fn]; int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := make(map[string]time.Duration)
	for _, s := range samples {
		if len(s.values) < 2 {
			continue // a CPU profile's values are (samples, cpu nanoseconds)
		}
		owner := "other"
	stack:
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if n := name(fn); strings.HasPrefix(n, "a4nn/") {
					owner = n
					break stack
				}
			}
		}
		out[owner] += time.Duration(s.values[1])
	}
	return out, nil
}

// pkgOf returns the import path of a fully qualified function name such
// as "a4nn/internal/nn.(*Conv2D).Forward".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// pbFields walks the fields of one protobuf message, calling fn with
// the field number and either the varint value or the bytes of a
// length-delimited field.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// pbVarints appends a repeated varint field's values, whether it came
// unpacked (one value, data nil) or packed (data holds the varints).
func pbVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
