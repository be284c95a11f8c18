package main

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark's measured costs.
type Result struct {
	NsPerOp     float64
	AllocsPerOp int64
}

// Run is the parsed output of one benchmark invocation.
type Run struct {
	CPU string
	// Benchmarks maps "<package>.<BenchmarkName>" (sub-benchmarks keep
	// their "/sub" suffix; the GOMAXPROCS "-N" suffix is stripped) to the
	// measured result.
	Benchmarks map[string]Result
}

// maxprocsSuffix matches the trailing "-N" GOMAXPROCS marker on benchmark
// names ("BenchmarkFoo-8"). Sub-benchmark names keep their "/sub" part.
var maxprocsSuffix = regexp.MustCompile(`-\d+$`)

// Parse decodes `go test -bench` text output, attributing each Benchmark
// line to the most recent "pkg:" header. Non-benchmark lines (experiment
// tables, test chatter) are ignored. Benchmark lines for the same name are
// last-write-wins, matching `go test -count` semantics.
func Parse(r io.Reader) (*Run, error) {
	run := &Run{Benchmarks: make(map[string]Result)}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			run.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// A benchmark line is "Name iterations value unit [value unit ...]".
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // e.g. "BenchmarkFoo \t--- FAIL" or table noise
		}
		var res Result
		var err error
		parsed := false
		for i := 2; i+1 < len(fields); i += 2 {
			val := fields[i]
			switch fields[i+1] {
			case "ns/op":
				if res.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
					return nil, fmt.Errorf("bench: bad ns/op in %q: %v", line, err)
				}
				parsed = true
			case "allocs/op":
				if res.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
					return nil, fmt.Errorf("bench: bad allocs/op in %q: %v", line, err)
				}
			}
		}
		if !parsed {
			continue
		}
		name := maxprocsSuffix.ReplaceAllString(fields[0], "")
		if pkg != "" {
			name = pkg + "." + name
		}
		run.Benchmarks[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: scanning output: %w", err)
	}
	return run, nil
}
