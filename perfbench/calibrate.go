package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// refCalibration is how long calibrationKernel takes on the reference
// host (2-core Xeon at 2.1 GHz, Go 1.24) when nothing else slows it.
// Timings are reported in reference-host time: measured × refCalibration
// / the median calibration of the run.
const refCalibration = 2500 * time.Microsecond

// calSink keeps the kernel's result alive.
var calSink float64

// calibrationKernel is a fixed piece of CPU work in the mix the
// workloads do: dense multiply-adds over cache-resident arrays (the
// GEMM kernels), many small allocations (decode, records, fits) and a
// branchy sort.
func calibrationKernel() {
	const n = 48
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.5
		b[i] = float64(i%5) * 0.25
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}
	x := c[n+1]
	var keep [][]float64
	for i := 0; i < 4000; i++ {
		s := make([]float64, 8+i%24)
		s[0] = math.Sqrt(float64(i) + x)
		if i%64 == 0 {
			keep = append(keep, s)
		}
		x += s[0] * 1e-9
	}
	v := make([]float64, 12000)
	for i := range v {
		v[i] = math.Sin(float64(i)*1.618 + x)
	}
	sort.Float64s(v)
	calSink = x + v[len(v)/2] + float64(len(keep))
}

// calPasses is how many passes a calibration times; the median of nine
// ignores a few interrupted ones.
const calPasses = 9

// calibrate times the kernel calPasses times and returns the median
// pass. It collects the heap first, outside the timed passes, so that
// the kernel's allocations do not pay for garbage the program left
// behind: otherwise a change that grows the program's heap would slow
// the calibration and scale its own time down.
func calibrate() time.Duration {
	runtime.GC()
	return glimpse()
}

// glimpse is one calibration without the collection: a 20 ms look at
// the host's speed.
func glimpse() time.Duration {
	var d [calPasses]time.Duration
	for i := range d {
		start := time.Now()
		calibrationKernel()
		d[i] = time.Since(start)
	}
	return medianDur(d[:])
}

// calibrations holds the run's calibrations after measured work, one
// per started second of it (see calibrateAfter), so their median is the
// host's speed over the measured time. One glimpse alone says little:
// the host's speed moves by tens of percent from one tenth of a second
// to the next.
var calibrations []time.Duration

// calibrateAfter calibrates after measured work that took d: one
// glimpse, plus one for every further second of d, all kept for
// runScale. It returns the first.
func calibrateAfter(d time.Duration) time.Duration {
	first := calibrate()
	calibrations = append(calibrations, first)
	for i := time.Second; i < d; i += time.Second {
		calibrations = append(calibrations, glimpse())
	}
	return first
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// runScale converts wall time measured in this run into reference-host
// time.
func runScale() float64 {
	return refCalibration.Seconds() / medianDur(calibrations).Seconds()
}
