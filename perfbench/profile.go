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

// cpuLayers are the layers whose CPU share the traced run reports. Every
// other sample lands in "other" (the bench harness, net/http without a repo
// frame, idle bookkeeping).
var cpuLayers = []string{"memsim", "avf", "sim", "workload", "core", "migration", "faultsim", "runtime", "service"}

// layerOfPackage maps a Go package path to its benchmark layer, or "" for a
// package outside the repository's layers.
func layerOfPackage(pkg string) string {
	switch pkg {
	case "hmem/internal/memsim":
		return "memsim"
	case "hmem/internal/avf":
		return "avf"
	case "hmem/internal/sim":
		return "sim"
	case "hmem/internal/workload", "hmem/internal/xrand", "hmem/internal/trace":
		return "workload"
	case "hmem/internal/core":
		return "core"
	case "hmem/internal/migration", "hmem/internal/mea":
		return "migration"
	case "hmem/internal/faultsim", "hmem/internal/ecc":
		return "faultsim"
	case "hmem/internal/service", "hmem/internal/breaker", "hmem/internal/cluster":
		return "service"
	case "hmem", "hmem/internal/experiments", "hmem/internal/exec":
		return "experiments"
	}
	if strings.HasPrefix(pkg, "hmem/") {
		return "other"
	}
	return ""
}

// funcPackage extracts the package path from a symbol name such as
// "hmem/internal/memsim.(*Channel).serveOne" or
// "hmem/internal/exec.Map[go.shape.int].func1".
func funcPackage(name string) string {
	head := name
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

func isRuntimePackage(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// attribute assigns one sampled stack (leaf first) to a layer: a runtime
// leaf (allocation, GC, scheduling) is "runtime"; any other leaf is charged
// to the nearest repository frame on its stack, so math or sort called by
// the workload generator counts as workload; a stack with no repository
// frame is "other".
func attribute(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if isRuntimePackage(funcPackage(stack[0])) {
		return "runtime"
	}
	for _, fn := range stack {
		if l := layerOfPackage(funcPackage(fn)); l != "" {
			return l
		}
	}
	return "other"
}

// cpuShares decodes a pprof CPU profile (gzip-compressed profile.proto, as
// runtime/pprof and /debug/pprof/profile write it) and returns each layer's
// share of sampled CPU time.
func cpuShares(data []byte) (map[string]float64, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		byLayer[attribute(stack)] += s.value
		total += s.value
	}
	out := map[string]float64{}
	for l, v := range byLayer {
		if total > 0 {
			out[l] = float64(v) / float64(total)
		}
	}
	return out, nil
}

// profile is the part of profile.proto that attribution needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64
}

// decodeProfile parses a (gzip-compressed or raw) profile.proto message.
// Field numbers follow github.com/google/pprof/proto/profile.proto:
// Profile{1 sample_type, 2 sample, 4 location, 5 function, 6 string_table},
// Sample{1 location_id, 2 value}, Location{1 id, 4 line},
// Line{1 function_id}, Function{1 id, 2 name}, ValueType{1 type}.
func decodeProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		sampleTypes []int64 // string index of each value's type
		rawSamples  [][]byte
		locLines    = map[uint64][]uint64{} // location -> function ids
		funcNames   = map[uint64]int64{}    // function id -> string index
		strs        []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1:
			var typ int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, typ)
		case 2:
			rawSamples = append(rawSamples, b)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
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
			locLines[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
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
			funcNames[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds); weight by the
	// cpu value when present, else by the last value.
	valueIdx := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}
	p := &profile{locFuncs: map[uint64][]string{}}
	for id, fns := range locLines {
		for _, f := range fns {
			p.locFuncs[id] = append(p.locFuncs[id], str(funcNames[f]))
		}
	}
	for _, b := range rawSamples {
		var s profSample
		var values []int64
		if err := eachField(b, func(n, wire int, v uint64, pb []byte) error {
			switch n {
			case 1:
				return eachUint(wire, v, pb, func(x uint64) { s.locs = append(s.locs, x) })
			case 2:
				return eachUint(wire, v, pb, func(x uint64) { values = append(values, int64(x)) })
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if valueIdx >= 0 && valueIdx < len(values) {
			s.value = values[valueIdx]
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's number
// and wire type, plus its varint value (wire types 0, 1, 5) or its bytes
// (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachUint yields a repeated integer field's values, packed (wire type 2)
// or not.
func eachUint(wire int, v uint64, packed []byte, fn func(uint64)) error {
	if wire != 2 {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
