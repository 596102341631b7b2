package interfere

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func demoDemand() Demand {
	return Demand{CPUSeconds: 55, IOSeconds: 45, MemoryMB: 256, MemBWMBps: 2200}
}

func demoShape() Shape {
	return Shape{Cores: 6, MemoryMB: 10240, MemBWMBps: 25600,
		ContentionRate: 0.38, BWWeight: 0.3, IsolationFactor: 1}
}

func TestSoloMatchesDemand(t *testing.T) {
	d, s := demoDemand(), demoShape()
	et := ExecSeconds(d, s, 1)
	if math.Abs(et-d.SoloSeconds()) > 1e-9 {
		t.Fatalf("solo ET %g, want %g", et, d.SoloSeconds())
	}
}

func TestExecMonotoneInDegree(t *testing.T) {
	d, s := demoDemand(), demoShape()
	prev := 0.0
	for deg := 1; deg <= s.MaxDegree(d); deg++ {
		et := ExecSeconds(d, s, deg)
		if et < prev {
			t.Fatalf("ET not monotone at degree %d: %g < %g", deg, et, prev)
		}
		prev = et
	}
}

// TestExponentialShape verifies the ground truth is log-linear in degree in
// the contention-dominated regime — the empirical shape the paper's Eq. 1
// was chosen to fit (Fig. 4).
func TestExponentialShape(t *testing.T) {
	d, s := demoDemand(), demoShape()
	kappa := s.ContentionKappa(d)
	if kappa <= 0 {
		t.Fatal("expected positive contention")
	}
	for deg := 2; deg <= 40; deg++ {
		ratio := ExecSeconds(d, s, deg) / ExecSeconds(d, s, deg-1)
		if math.Abs(math.Log(ratio)-kappa) > 1e-9 {
			t.Fatalf("degree %d: log-ratio %g, want κ=%g", deg, math.Log(ratio), kappa)
		}
	}
}

// TestComputeBoundDegradesFaster encodes the paper's Smith-Waterman
// observation: compute-intensive functions pack worse than I/O-heavy ones.
func TestComputeBoundDegradesFaster(t *testing.T) {
	s := demoShape()
	cpuBound := Demand{CPUSeconds: 92, IOSeconds: 10, MemoryMB: 292, MemBWMBps: 3600}
	ioBound := Demand{CPUSeconds: 22, IOSeconds: 18, MemoryMB: 341, MemBWMBps: 1600}
	cpuSlow := ExecSeconds(cpuBound, s, 12) / ExecSeconds(cpuBound, s, 1)
	ioSlow := ExecSeconds(ioBound, s, 12) / ExecSeconds(ioBound, s, 1)
	if cpuSlow <= ioSlow {
		t.Fatalf("CPU-bound slowdown %g should exceed I/O-bound %g", cpuSlow, ioSlow)
	}
}

// TestWorkConservationFloor: with contention switched off, packing is free
// only until the cores are saturated with actual compute.
func TestWorkConservationFloor(t *testing.T) {
	d := Demand{CPUSeconds: 60, IOSeconds: 0, MemoryMB: 100}
	s := Shape{Cores: 6, MemoryMB: 10240, MemBWMBps: 1e9, IsolationFactor: 1}
	if got := ExecSeconds(d, s, 6); math.Abs(got-60) > 1e-9 {
		t.Fatalf("ET at degree=cores should be uncontended: %g", got)
	}
	if got := ExecSeconds(d, s, 12); math.Abs(got-120) > 1e-9 {
		t.Fatalf("ET at 2×cores should double (work conservation): %g", got)
	}
}

func TestBandwidthPressureRaisesContention(t *testing.T) {
	s := demoShape()
	lowBW := Demand{CPUSeconds: 50, IOSeconds: 50, MemoryMB: 256, MemBWMBps: 500}
	highBW := Demand{CPUSeconds: 50, IOSeconds: 50, MemoryMB: 256, MemBWMBps: 8000}
	if s.ContentionKappa(highBW) <= s.ContentionKappa(lowBW) {
		t.Fatal("higher bandwidth demand should raise contention")
	}
	// Pressure saturates at 1: absurd demands do not explode κ.
	insane := lowBW
	insane.MemBWMBps = 1e9
	capped := s.ContentionKappa(insane)
	justSaturated := lowBW
	justSaturated.MemBWMBps = s.MemBWMBps // cores×this ≥ instance BW
	if math.Abs(capped-s.ContentionKappa(justSaturated)) > 1e-12 {
		t.Fatal("bandwidth pressure should cap at 1")
	}
}

func TestIsolationFactorScales(t *testing.T) {
	d, s := demoDemand(), demoShape()
	s.IsolationFactor = 1.12
	base := demoShape()
	r := ExecSeconds(d, s, 8) / ExecSeconds(d, base, 8)
	if math.Abs(r-1.12) > 1e-9 {
		t.Fatalf("isolation factor not applied multiplicatively: %g", r)
	}
}

func TestMaxDegree(t *testing.T) {
	s := demoShape()
	cases := []struct {
		memMB float64
		want  int
	}{
		{256, 40},  // Video
		{680, 15},  // Sort
		{341, 30},  // StatelessCost
		{292, 35},  // Smith-Waterman
		{10241, 0}, // doesn't fit at all
	}
	for _, c := range cases {
		got := s.MaxDegree(Demand{MemoryMB: c.memMB})
		if got != c.want {
			t.Fatalf("MaxDegree(%g MB) = %d, want %d", c.memMB, got, c.want)
		}
	}
	if s.MaxDegree(Demand{}) != 0 {
		t.Fatal("zero-memory demand should yield 0")
	}
}

func TestUtilization(t *testing.T) {
	d := Demand{CPUSeconds: 30, IOSeconds: 70, MemoryMB: 1}
	if math.Abs(d.Utilization()-0.3) > 1e-12 {
		t.Fatalf("utilization %g, want 0.3", d.Utilization())
	}
	if (Demand{}).Utilization() != 0 {
		t.Fatal("zero demand utilization should be 0")
	}
}

func TestValidation(t *testing.T) {
	if err := demoDemand().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := demoShape().Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Demand{
		{CPUSeconds: -1, MemoryMB: 10},
		{CPUSeconds: 0, IOSeconds: 0, MemoryMB: 10},
		{CPUSeconds: 1, MemoryMB: 0},
		{CPUSeconds: 1, MemoryMB: 10, MemBWMBps: -5},
		{CPUSeconds: 1, MemoryMB: 10, ShuffleFraction: 1.5},
	}
	for i, b := range bads {
		if b.Validate() == nil {
			t.Fatalf("bad demand %d accepted: %+v", i, b)
		}
	}
	badShapes := []Shape{
		{Cores: 0, MemoryMB: 1, MemBWMBps: 1, IsolationFactor: 1},
		{Cores: 1, MemoryMB: 0, MemBWMBps: 1, IsolationFactor: 1},
		{Cores: 1, MemoryMB: 1, MemBWMBps: 0, IsolationFactor: 1},
		{Cores: 1, MemoryMB: 1, MemBWMBps: 1, IsolationFactor: 0},
		{Cores: 1, MemoryMB: 1, MemBWMBps: 1, IsolationFactor: 1, ContentionRate: -1},
		{Cores: 1, MemoryMB: 1, MemBWMBps: 1, IsolationFactor: 1, BWWeight: -1},
	}
	for i, b := range badShapes {
		if b.Validate() == nil {
			t.Fatalf("bad shape %d accepted: %+v", i, b)
		}
	}
}

// TestValidateRejectsNonFinite: every float field of Demand and Shape refuses
// NaN and ±Inf. Each used to walk through an `x < 0`-style check — NaN fails
// every comparison — and surface as a simulator panic ("non-finite delay
// NaN") instead of a validation error. The tables are held to the structs'
// float-field counts, so a field added later cannot skip them.
func TestValidateRejectsNonFinite(t *testing.T) {
	floatFields := func(v any) (n int) {
		ty := reflect.TypeOf(v)
		for i := 0; i < ty.NumField(); i++ {
			if ty.Field(i).Type.Kind() == reflect.Float64 {
				n++
			}
		}
		return n
	}
	demandFields := map[string]func(*Demand) *float64{
		"CPUSeconds":      func(d *Demand) *float64 { return &d.CPUSeconds },
		"IOSeconds":       func(d *Demand) *float64 { return &d.IOSeconds },
		"MemoryMB":        func(d *Demand) *float64 { return &d.MemoryMB },
		"MemBWMBps":       func(d *Demand) *float64 { return &d.MemBWMBps },
		"InputMB":         func(d *Demand) *float64 { return &d.InputMB },
		"OutputMB":        func(d *Demand) *float64 { return &d.OutputMB },
		"ShuffleFraction": func(d *Demand) *float64 { return &d.ShuffleFraction },
	}
	shapeFields := map[string]func(*Shape) *float64{
		"MemoryMB":        func(s *Shape) *float64 { return &s.MemoryMB },
		"MemBWMBps":       func(s *Shape) *float64 { return &s.MemBWMBps },
		"ContentionRate":  func(s *Shape) *float64 { return &s.ContentionRate },
		"BWWeight":        func(s *Shape) *float64 { return &s.BWWeight },
		"CrossDiscount":   func(s *Shape) *float64 { return &s.CrossDiscount },
		"IsolationFactor": func(s *Shape) *float64 { return &s.IsolationFactor },
	}
	if n := floatFields(Demand{}); n != len(demandFields) {
		t.Fatalf("Demand holds %d float fields, the table %d", n, len(demandFields))
	}
	if n := floatFields(Shape{}); n != len(shapeFields) {
		t.Fatalf("Shape holds %d float fields, the table %d", n, len(shapeFields))
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, field := range demandFields {
			d := demoDemand()
			*field(&d) = v
			if d.Validate() == nil {
				t.Errorf("Demand.%s = %v validated clean", name, v)
			}
			if (Shape{}).ValidateMixed([]Demand{d}) == nil {
				t.Errorf("Demand.%s = %v validated clean as a packed set", name, v)
			}
		}
		for name, field := range shapeFields {
			s := demoShape()
			*field(&s) = v
			if s.Validate() == nil {
				t.Errorf("Shape.%s = %v validated clean", name, v)
			}
		}
	}
}

func TestDegreeZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("degree 0 should panic")
		}
	}()
	ExecSeconds(demoDemand(), demoShape(), 0)
}

// Property: slowdown, ExecSeconds normalized by the solo time on the same
// shape, is ≥1 and monotone for arbitrary sane demands.
func TestSlowdownProperty(t *testing.T) {
	f := func(cpu, io, bw uint8) bool {
		d := Demand{
			CPUSeconds: 1 + float64(cpu),
			IOSeconds:  float64(io),
			MemoryMB:   256,
			MemBWMBps:  float64(bw) * 100,
		}
		s := demoShape()
		prev := 0.0
		for deg := 1; deg <= 40; deg++ {
			sl := ExecSeconds(d, s, deg) / ExecSeconds(d, s, 1)
			if sl < 1-1e-12 || sl < prev-1e-12 {
				return false
			}
			prev = sl
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
