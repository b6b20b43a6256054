package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// refProbeNS is the reference host speed: the CPU time cpuprobe's kernel
// takes on a daemon CPU at that speed. It is a round figure near what the
// kernel took beside a busy daemon on the 2-CPU VM the benchmark was
// sized on, so normalized numbers are of the order of measured ones.
const refProbeNS = 250_000

// probeSpan is how many of the nearest probe samples, per probe, the
// host's slowdown at an instant is the median of: about a second of
// samples, so the few that an interrupt or a cold cache inflated do not
// move it.
const probeSpan = 50

// probeSample is one cpuprobe line.
type probeSample struct {
	at time.Time
	ns float64
}

// hostSpeed runs one cpuprobe per daemon CPU for the whole run and
// collects their samples.
type hostSpeed struct {
	cmds  []*exec.Cmd
	stdin []io.WriteCloser
	wg    sync.WaitGroup // the stdout readers

	mu      sync.Mutex
	samples []probeSample
	err     error // the first malformed line
}

// startProbes starts a cpuprobe on each daemon CPU (on every CPU when
// nothing is pinned).
func (e *env) startProbes() (*hostSpeed, error) {
	h := &hostSpeed{}
	cpus := strings.Split(e.lay.Daemons, ",")
	if !e.lay.Pinned {
		cpus = []string{e.lay.Daemons}
	}
	for _, cpu := range cpus {
		cmd := e.command(context.Background(), cpu, "cpuprobe")
		stdin, err := cmd.StdinPipe()
		if err != nil {
			h.stop()
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			h.stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			h.stop()
			return nil, fmt.Errorf("starting cpuprobe: %w", err)
		}
		h.cmds = append(h.cmds, cmd)
		h.stdin = append(h.stdin, stdin)
		h.wg.Add(1)
		go h.read(stdout)
	}
	return h, nil
}

func (h *hostSpeed) read(r io.Reader) {
	defer h.wg.Done()
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		s, err := parseProbeLine(sc.Text())
		h.mu.Lock()
		if err == nil {
			h.samples = append(h.samples, s)
		} else if h.err == nil {
			h.err = err
		}
		h.mu.Unlock()
	}
}

// parseProbeLine reads "<unix ns> <kernel CPU ns>".
func parseProbeLine(line string) (probeSample, error) {
	f := strings.Fields(line)
	if len(f) != 2 {
		return probeSample{}, fmt.Errorf("cpuprobe line %q: want two fields", line)
	}
	at, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return probeSample{}, fmt.Errorf("cpuprobe line %q: %w", line, err)
	}
	ns, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil || ns <= 0 {
		return probeSample{}, fmt.Errorf("cpuprobe line %q: bad kernel time", line)
	}
	return probeSample{at: time.Unix(0, at), ns: float64(ns)}, nil
}

// stop closes every probe's standard input, which ends it, and waits
// for the probes and their readers to finish; a probe that has not
// ended within 5 s is killed.
func (h *hostSpeed) stop() {
	for _, w := range h.stdin {
		_ = w.Close() // closing ends the probe; nothing else is written
	}
	read := make(chan struct{})
	go func() {
		h.wg.Wait()
		close(read)
	}()
	select {
	case <-read:
	case <-time.After(5 * time.Second):
		for _, c := range h.cmds {
			_ = c.Process.Kill() // it may have exited meanwhile
		}
		<-read
	}
	// Wait closes the stdout pipes, so it comes after the readers end.
	for _, c := range h.cmds {
		_ = c.Wait() // a probe's exit status carries nothing once it has stopped
	}
	h.stdin, h.cmds = nil, nil
}

// trace returns the samples so far, in time order.
func (h *hostSpeed) trace() (speedTrace, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return speedTrace{}, h.err
	}
	span := probeSpan * max(1, len(h.cmds))
	if len(h.samples) < span {
		return speedTrace{}, fmt.Errorf("cpuprobe gave %d samples, need %d", len(h.samples), span)
	}
	t := speedTrace{samples: append([]probeSample(nil), h.samples...), span: span}
	sort.Slice(t.samples, func(i, j int) bool { return t.samples[i].at.Before(t.samples[j].at) })
	return t, nil
}

// speedTrace is the probes' samples in time order.
type speedTrace struct {
	samples []probeSample
	span    int // samples per median
}

// slowdown is how many times slower than the reference speed the host
// ran the daemon CPUs at t: the median kernel time of the span samples
// nearest to t, over refProbeNS.
func (t speedTrace) slowdown(at time.Time) float64 {
	s := t.samples
	// s[lo:hi] grows from the insertion point of at toward the nearer side.
	lo := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(at) })
	hi := lo
	for hi-lo < t.span {
		switch {
		case lo == 0:
			hi++
		case hi == len(s):
			lo--
		case at.Sub(s[lo-1].at) <= s[hi].at.Sub(at):
			lo--
		default:
			hi++
		}
	}
	ns := make([]float64, 0, t.span)
	for _, x := range s[lo:hi] {
		ns = append(ns, x.ns)
	}
	return median(ns) / refProbeNS
}

// slowdowns returns the slowdown of each slice of a window cut into n
// equal slices, taken at the slice's middle.
func (t speedTrace) slowdowns(from time.Time, window time.Duration, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = t.slowdown(from.Add(window * time.Duration(2*i+1) / time.Duration(2*n)))
	}
	return out
}

// refDuration is how long the interval from..to would have lasted at the
// reference speed: each sliceLen piece of it over the slowdown at its
// middle.
func (t speedTrace) refDuration(from, to time.Time) time.Duration {
	d := to.Sub(from)
	n := max(1, int((d+sliceLen-1)/sliceLen))
	var ref float64
	for _, s := range t.slowdowns(from, d, n) {
		ref += float64(d) / float64(n) / s
	}
	return time.Duration(ref)
}
