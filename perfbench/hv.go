package main

import (
	"sort"

	"a4nn/internal/lineage"
)

// point is one model in objective space: error = 100 − accuracy (%) and
// cost in MFLOPs, both minimised.
type point struct{ err, mflops float64 }

// hypervolume is the area, in %.MFLOP, that the points dominate inside
// the box bounded by the reference point (refErr, refMFLOPs). Points at
// or beyond the reference contribute nothing. It depends only on the
// Pareto front, so dominated points need no filtering first.
func hypervolume(pts []point, refErr, refMFLOPs float64) float64 {
	var in []point
	for _, p := range pts {
		if p.err < refErr && p.mflops < refMFLOPs {
			in = append(in, p)
		}
	}
	sort.Slice(in, func(i, j int) bool {
		if in[i].err != in[j].err {
			return in[i].err < in[j].err
		}
		return in[i].mflops < in[j].mflops
	})
	area := 0.0
	bestCost := refMFLOPs // lowest cost among points with smaller error
	for i, p := range in {
		if p.mflops >= bestCost {
			continue // dominated
		}
		next := refErr
		for _, q := range in[i+1:] {
			if q.mflops < p.mflops {
				next = q.err
				break
			}
		}
		area += (next - p.err) * (refMFLOPs - p.mflops)
		bestCost = p.mflops
	}
	return area
}

// frontHypervolume is the hypervolume of the records' final front, by
// the fitness they reported to the NAS, from the fixed reference point
// (100 % error, twice the cost of the largest network in the search
// space). The doubled cost keeps a front of costly models from reading
// near zero, so the metric follows accuracy across the whole front.
func frontHypervolume(recs []*lineage.Record, maxMFLOPs float64) float64 {
	pts := make([]point, len(recs))
	for i, r := range recs {
		pts[i] = point{err: 100 - r.FinalFitness, mflops: float64(r.FLOPs) / 1e6}
	}
	return hypervolume(pts, 100, 2*maxMFLOPs)
}
