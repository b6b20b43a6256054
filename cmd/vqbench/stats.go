package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// supportedPercentiles are the only percentiles vqbench reports. Asking
// for any other is a programming error the helper refuses, so a typo
// such as 0.99 for 99 cannot silently report the median.
var supportedPercentiles = []float64{50, 99}

// minTail is how many samples must lie beyond a reported percentile for
// the run to count as valid: with fewer, the tail is a handful of
// outliers, not a percentile.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) (float64, error) {
	ok := false
	for _, s := range supportedPercentiles {
		ok = ok || s == p
	}
	if !ok {
		return 0, fmt.Errorf("percentile %.6g is not supported (want 50 or 99)", p)
	}
	if len(sorted) == 0 {
		return 0, fmt.Errorf("percentile %.6g of no samples", p)
	}
	return sorted[rank(len(sorted), p)], nil
}

// rank is the nearest-rank index of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// beyond counts the samples above the p-th percentile of n samples.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// sliceLen is the length of the pieces a timed interval is cut into,
// each counted at the host's slowdown at its middle (hostspeed.go).
const sliceLen = 500 * time.Millisecond

// minAnswers is the fewest answers a window needs: the fewest that leave
// minTail samples beyond the 99th percentile.
const minAnswers = 1000

// windowStats reduces one measured window's answers to its end-to-end
// numbers at the reference host speed. slow holds the host's slowdown in
// each of the window's equal slices (all 1 gives the numbers as
// measured). rowsPerS is the rows answered over the window's reference
// duration, in which each slice lasts its length over its slowdown. p50
// and p99 are percentiles of the round trips, each divided by the
// slowdown of the slice holding its middle. A window with fewer than
// minAnswers answers is an error, returned with the numbers.
func windowStats(as []answered, window time.Duration, slow []float64) (rowsPerS, p50, p99 float64, err error) {
	n := len(slow)
	var refS float64
	for _, s := range slow {
		refS += window.Seconds() / float64(n) / s
	}
	rows := 0
	lats := make([]float64, 0, len(as))
	for _, a := range as {
		mid := a.at - time.Duration(a.lat*float64(time.Millisecond)/2)
		i := min(max(int(int64(mid)*int64(n)/int64(window)), 0), n-1)
		rows += a.rows
		lats = append(lats, a.lat/slow[i])
	}
	rowsPerS = float64(rows) / refS
	if len(lats) == 0 {
		return rowsPerS, 0, 0, errors.New("no request completed inside the measured window")
	}
	sort.Float64s(lats)
	p50, _ = percentile(lats, 50) // both are supported, and lats is not empty
	p99, _ = percentile(lats, 99)
	if len(lats) < minAnswers {
		err = fmt.Errorf("p99_ms: only %d answers in the window, need %d for %d samples beyond the 99th percentile", len(lats), minAnswers, minTail)
	}
	return rowsPerS, p50, p99, err
}

// median returns the median of xs (which it sorts in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so compare mode's spreads match what a
// Python harness computes from the same runs. xs is sorted in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// parseProm reads Prometheus text exposition (the 0.0.4 format served
// by /metrics) into a map from series, as printed with its label set,
// to value. Comment and blank lines are skipped.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// series sums every series of the family base whose labels contain all
// of the given label pairs (rendered as in the exposition, e.g.
// `stage="queue"`); with no labels it sums the whole family. Family
// members are the exact name and name{...}.
func series(m map[string]float64, base string, labels ...string) float64 {
	sum := 0.0
	for name, v := range m {
		if name != base && !strings.HasPrefix(name, base+"{") {
			continue
		}
		match := true
		for _, l := range labels {
			match = match && strings.Contains(name, l)
		}
		if match {
			sum += v
		}
	}
	return sum
}

// userHZ is the kernel's clock-tick rate for /proc CPU times. Linux
// fixes USER_HZ at 100 on every architecture Go supports.
const userHZ = 100

// parseStat returns utime+stime in nanoseconds from one /proc/<pid>/stat
// line. The command name sits in parentheses and may itself contain
// spaces or parentheses, so fields are counted from the last ')'.
func parseStat(line string) (int64, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat line has no command name: %q", line)
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the command name, want at least 13", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat cpu field %q: %w", s, err)
		}
		ticks += v
	}
	return ticks * (1e9 / userHZ), nil
}

// parseHWM returns the VmHWM (peak resident set) line of a
// /proc/<pid>/status file in bytes.
func parseHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM line %q: %w", line, err)
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("status has no VmHWM line")
}

// parseCPUList expands a kernel CPU list such as "0-3,6" (the
// Cpus_allowed_list format) into CPU numbers.
func parseCPUList(s string) ([]int, error) {
	var cpus []int
	for _, part := range strings.Split(strings.TrimSpace(s), ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("cpu list %q: %w", s, err)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return nil, fmt.Errorf("cpu list %q: %w", s, err)
			}
		}
		for c := a; c <= b; c++ {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}
