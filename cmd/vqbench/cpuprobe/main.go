// Command cpuprobe follows how fast the host runs the CPU it is pinned
// to. Every 20 ms it decodes a fixed JSON document a few times, timing
// the work with its thread's CPU clock, and prints one line per sample:
//
//	<unix time, ns> <thread CPU time of the kernel, ns>
//
// It runs at the lowest scheduling priority, so it takes its ~1% share
// of a busy CPU without holding up the process it shares the CPU with,
// and it exits when its standard input closes. vqbench runs one beside
// the daemons it measures (README.md, "Host speed").
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// every is the sampling interval.
const every = 20 * time.Millisecond

// decodes is how many times a sample decodes the document: ~0.2 ms of
// CPU on the host vqbench was sized on.
const decodes = 5

func main() {
	runtime.GOMAXPROCS(1)
	// The kernel's thread is the one whose CPU clock is read.
	runtime.LockOSThread()
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
		fmt.Fprintln(os.Stderr, "cpuprobe: lowering priority:", err)
		os.Exit(1)
	}
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // returns when the parent closes it or exits
		close(done)
	}()

	doc := document()
	w := bufio.NewWriter(os.Stdout)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		c0 := threadCPU()
		for i := 0; i < decodes; i++ {
			var v map[string]any
			if err := json.Unmarshal(doc, &v); err != nil {
				panic(err) // the document is built above; failing to decode it is a bug
			}
		}
		c1 := threadCPU()
		fmt.Fprintf(w, "%d %d\n", time.Now().UnixNano(), c1-c0)
		if err := w.Flush(); err != nil {
			os.Exit(0) // the reader is gone
		}
		select {
		case <-done:
			return
		case <-tick.C:
		}
	}
}

// document is a fixed JSON object of 60 numeric features, shaped like
// one session's feature vector.
func document() []byte {
	m := make(map[string]float64, 60)
	x := uint64(88172645463325252)
	for i := 0; i < 60; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m["feature_"+strconv.Itoa(i)] = float64(x%1_000_000) / 1000
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return b
}

// threadCPU returns the calling thread's CPU time in nanoseconds.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // CLOCK_THREAD_CPUTIME_ID exists on every Linux Go supports
	}
	return ts.Nano()
}
