package main

import (
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// calibrationRef is about calibrate's time on the reference machine, the
// 2-CPU virtual machine the sizes were calibrated on, in a fast stretch. It
// only sets the scale of the scaled timings.
const calibrationRef = 12 * time.Millisecond

var (
	// calibrationSink keeps the compiler from discarding calibrate's work.
	calibrationSink uint64
	// calibrationWarm runs the work once untimed, so that no calibration
	// pays for the process's first touch of its memory.
	calibrationWarm sync.Once
)

// calibrate times a fixed piece of work that calls only the standard
// library: map updates, slice allocation and sorting. The garbage collector
// is off while it runs, so the benchmark's own heap does not move it, and
// collects the work's garbage afterwards, untimed.
//
// The shared virtual machine the benchmark was calibrated on changes speed by
// 20–40%, both from second to second and over minutes, and calibrate slows
// down with it, while no change to this repository can move it. A run
// calibrates before every round and after the last one, with no daemon
// running, and scales its timings to the reference machine's speed by
// calibrationRef ÷ the mean calibration (see speed). The mean, unlike the
// median, follows the share of the run the machine spent slow.
func calibrate() time.Duration {
	calibrationWarm.Do(calibrationWork)
	gc := debug.SetGCPercent(-1)
	start := time.Now()
	calibrationWork()
	d := time.Since(start)
	debug.SetGCPercent(gc)
	runtime.GC()
	return d
}

func calibrationWork() {
	m := make(map[uint64]uint64)
	buf := make([]uint64, 0, 1024)
	x := uint64(88172645463325252)
	for i := 0; i < 100000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x&4095] += x
		if len(buf) == cap(buf) {
			sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
			calibrationSink += buf[len(buf)/2]
			buf = make([]uint64, 0, 1024)
		}
		buf = append(buf, x)
	}
	calibrationSink += uint64(len(m))
}

// speed is how much faster than the reference machine this run's machine
// was: calibrationRef ÷ the mean of the run's calibrations. A timing
// measured here times speed is the timing at the reference machine's speed.
func speed(calib []time.Duration) float64 {
	var sum time.Duration
	for _, d := range calib {
		sum += d
	}
	return ratio(calibrationRef.Seconds()*float64(len(calib)), sum.Seconds())
}
