package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	tr := &tracer{}
	p := tr.add(0, "parent", at(0), at(10))
	tr.add(p, "child", at(1), at(3))
	tr.add(p, "child", at(2), at(5)) // overlaps the first
	tr.add(p, "child", at(7), at(8))
	tr.add(p, "child", at(9), at(12)) // clipped to the parent
	self := tr.selfTimes()
	if got := self["parent"].Seconds(); math.Abs(got-4) > 1e-9 {
		t.Errorf("parent self time %v s, want 4", got)
	}
	if got := self["child"].Seconds(); math.Abs(got-(2+3+1+3)) > 1e-9 {
		t.Errorf("children self time %v s, want 9", got)
	}
	var nilTracer *tracer
	if id := nilTracer.add(0, "x", at(0), at(1)); id != 0 {
		t.Errorf("nil tracer recorded span %d", id)
	}
}

//go:noinline
func burn(d time.Duration) float64 {
	x := 0.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestCPUProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profile unavailable:", err)
	}
	burn(400 * time.Millisecond)
	pprof.StopCPUProfile()
	byFunc, err := cpuByFunc(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := byFunc["a4nn/perfbench.burn"]
	if got < 100*time.Millisecond {
		t.Errorf("burn attributed %v of ~400ms; profile: %v", got, byFunc)
	}
	if pkgOf("a4nn/internal/nn.(*Conv2D).Forward") != "a4nn/internal/nn" || pkgOf("a4nn/perfbench.burn") != "a4nn/perfbench" {
		t.Error("pkgOf splits names wrongly")
	}
	if _, err := cpuByFunc([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}
