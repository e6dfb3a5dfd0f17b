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

// The CPU profile is decoded here, from the protobuf wire format that
// runtime/pprof writes, because the standard library has no reader for it.
// Only the fields needed for self time by package are read: sample types,
// samples, locations, functions and the string table.

var errProto = errors.New("perfbench: malformed profile")

// protoFields calls f for every field of one protobuf message. For varint
// and fixed-width fields v holds the value; for length-delimited fields
// data holds the payload.
func protoFields(b []byte, f func(num int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			f(num, v, nil)
		case 1:
			if len(b) < 8 {
				return errProto
			}
			f(num, binary.LittleEndian.Uint64(b), nil)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f(num, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			f(num, uint64(binary.LittleEndian.Uint32(b)), nil)
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// repeatedVarints appends a repeated varint field's values, which the
// encoder may write packed (one length-delimited run) or one per field.
func repeatedVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// cpuByFunction decodes a gzipped CPU profile and adds each sample's CPU
// time to the leaf function that was executing: the first line of the
// sample's first location, which is the innermost inlined frame. That
// leaf attribution is self time.
func cpuByFunction(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("perfbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("perfbench: profile: %w", err)
	}
	var (
		types   [][2]uint64 // (type, unit) string indices
		samples [][]byte
		strs    []string
		locLeaf = map[uint64]uint64{} // location id -> leaf function id
		funName = map[uint64]uint64{} // function id -> name string index
		perr    error
	)
	err = protoFields(raw, func(num int, v uint64, data []byte) {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			perr = errors.Join(perr, protoFields(data, func(n int, v uint64, _ []byte) {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
			}))
			types = append(types, t)
		case 2:
			samples = append(samples, data)
		case 4: // location: id, line{function_id}
			var id, leaf uint64
			haveLeaf := false
			perr = errors.Join(perr, protoFields(data, func(n int, v uint64, d []byte) {
				switch {
				case n == 1:
					id = v
				case n == 4 && !haveLeaf:
					haveLeaf = true
					perr = errors.Join(perr, protoFields(d, func(n int, v uint64, _ []byte) {
						if n == 1 {
							leaf = v
						}
					}))
				}
			}))
			if haveLeaf {
				locLeaf[id] = leaf
			}
		case 5: // function: id, name
			var id, name uint64
			perr = errors.Join(perr, protoFields(data, func(n int, v uint64, _ []byte) {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}))
			funName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
	})
	if err = errors.Join(err, perr); err != nil {
		return err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valIdx := len(types) - 1
	for i, t := range types {
		if str(t[0]) == "cpu" {
			valIdx = i
		}
	}
	if valIdx < 0 {
		return nil
	}
	for _, s := range samples {
		var locs, vals []uint64
		if err := protoFields(s, func(n int, v uint64, d []byte) {
			switch n {
			case 1:
				locs = repeatedVarints(locs, v, d)
			case 2:
				vals = repeatedVarints(vals, v, d)
			}
		}); err != nil {
			return err
		}
		if len(locs) == 0 || valIdx >= len(vals) {
			continue
		}
		name := "unknown"
		if fid, ok := locLeaf[locs[0]]; ok {
			name = str(funName[fid])
		}
		into[name] += int64(vals[valIdx])
	}
	return nil
}

// packageOf returns the import path of a symbolized Go function name,
// e.g. "repro/internal/chip" for "repro/internal/chip.(*runState).step".
// Type arguments are dropped first, since they may contain paths.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a package onto the layer names the per-layer metrics use.
// The trace layer is the work-item generators and the schedules and
// layouts they are built from; the net layer is the HTTP transport and the
// socket system calls under it. Packages outside every named layer keep
// their import path and appear only in the printed report.
func layerOf(pkg string) string {
	switch pkg {
	case "repro/internal/chip", "repro/internal/sim", "repro/internal/cache",
		"repro/internal/mem", "repro/internal/cpu", "repro/internal/service":
		return strings.TrimPrefix(pkg, "repro/internal/")
	case "repro/internal/trace", "repro/internal/kernels", "repro/internal/jacobi",
		"repro/internal/lbm", "repro/internal/omp", "repro/internal/segarray":
		return "trace"
	case "encoding/json":
		return "json"
	case "net", "internal/poll", "syscall":
		return "net"
	case "runtime":
		return "runtime"
	}
	switch {
	case strings.HasPrefix(pkg, "net/"):
		return "net"
	case strings.HasPrefix(pkg, "runtime/internal/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return pkg
}
