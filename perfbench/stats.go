package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// timeSetup repeats one set-up in blocks of at least 100 ms (or 10,000
// set-ups), with a calibration before the first block and after each,
// until it has run for at least a second in at least five blocks (at
// most 100,000 set-ups). It returns the median set-up in reference-host
// seconds and the last set-up's product. Many set-ups per run make the
// median steady even when one set-up takes microseconds. The set-ups
// are scaled by the median of their own calibrations, not the run's:
// they fill the run's first second or so, and the host's speed then
// can differ from its speed over the rest of the run.
func timeSetup[T any](fn func(i int) (T, error)) (float64, T, error) {
	var (
		durs  []float64
		last  T
		total time.Duration
		i     int
	)
	cals := []time.Duration{calibrate()}
	const maxSetups, maxBlock = 100_000, 10_000
	for b := 0; i < maxSetups && (b < 5 || total < time.Second); b++ {
		var block []float64
		var blockTotal time.Duration
		for ; i < maxSetups && len(block) < maxBlock && (len(block) == 0 || blockTotal < 100*time.Millisecond); i++ {
			start := time.Now()
			v, err := fn(i)
			d := time.Since(start)
			if err != nil {
				return 0, last, err
			}
			last = v
			blockTotal += d
			block = append(block, d.Seconds())
		}
		total += blockTotal
		durs = append(durs, block...)
		cals = append(cals, calibrate())
	}
	return median(durs) * refCalibration.Seconds() / medianDur(cals).Seconds(), last, nil
}

// runRounds calls round until the measuring window is spent: a round
// starts only when the median round so far still fits in the window,
// and at least minRounds run whatever the window, so every run has a
// repeat for the work-repeat check. Every round does the same work.
func runRounds(window time.Duration, minRounds int, round func(r int) error) (int, error) {
	start := time.Now()
	var durs []float64
	for r := 0; ; r++ {
		if r >= minRounds {
			left := window - time.Since(start)
			if left.Seconds() < median(durs) {
				return r, nil
			}
		}
		t := time.Now()
		if err := round(r); err != nil {
			return r, fmt.Errorf("round %d: %w", r, err)
		}
		durs = append(durs, time.Since(t).Seconds())
	}
}
