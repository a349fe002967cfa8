package main

import (
	"math"
	"testing"
)

func TestHypervolumeHandComputedFronts(t *testing.T) {
	for _, tc := range []struct {
		name string
		pts  []point
		want float64
	}{
		{"empty", nil, 0},
		{"one point", []point{{10, 2}}, 90 * 8},
		// Two boxes, 450 + 560, overlapping in [30,100]×[5,10] = 350.
		{"two-point front", []point{{10, 5}, {30, 2}}, 660},
		{"dominated point adds nothing", []point{{30, 2}, {40, 6}, {10, 5}}, 660},
		{"duplicate adds nothing", []point{{10, 5}, {30, 2}, {30, 2}}, 660},
		{"point beyond the reference adds nothing", []point{{10, 5}, {30, 2}, {5, 12}, {100, 1}}, 660},
		// Slabs: 20×(10−8) + 30×(10−4) + 50×(10−1).
		{"three-point staircase", []point{{50, 1}, {0, 8}, {20, 4}}, 40 + 180 + 450},
		{"equal error keeps the cheaper", []point{{20, 6}, {20, 4}}, 80 * 6},
	} {
		if got := hypervolume(tc.pts, 100, 10); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: hypervolume %v, want %v", tc.name, got, tc.want)
		}
	}
}
