package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a tail value read off fewer samples is one outlier, not a
// distribution.
const minTail = 10

// median returns the exact median of samples (the mean of the two middle
// values for an even count). It does not modify samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := sortedCopy(samples)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the exact nearest-rank q-quantile of samples (the
// smallest sample with at least q of all samples at or below it), and
// whether it may be reported: at least minTail samples must lie beyond it.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	s := sortedCopy(samples)
	return s[rank-1], n-rank >= minTail
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// slope is the least-squares slope of ys over xs (0 with fewer than two
// distinct xs).
func slope(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// promSamples maps "name{labels}" (labels exactly as rendered) to value.
type promSamples map[string]float64

// parseProm reads Prometheus text exposition: comment and blank lines are
// skipped, every other line is "<name>[{labels}] <value>". A label value
// may contain spaces, so the value is the text after the last space.
func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta returns after[key] - before[key]; absent samples read as 0.
func delta(before, after promSamples, key string) float64 {
	return after[key] - before[key]
}

// statusKB reads one "<Field>:  <n> kB" line of a /proc/<pid>/status file.
func statusKB(path, field string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseStatusKB(f, field)
}

func parseStatusKB(r io.Reader, field string) (int64, error) {
	sc := bufio.NewScanner(r)
	prefix := field + ":"
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fs := strings.Fields(line[len(prefix):])
		if len(fs) != 2 || fs[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", field, line)
		}
		return strconv.ParseInt(fs[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("status: no %s line", field)
}

// peakRSSMB is the VmHWM (peak resident set) of a process in MB.
func peakRSSMB(pid string) (float64, error) {
	kb, err := statusKB("/proc/"+pid+"/status", "VmHWM")
	return float64(kb) / 1024, err
}
