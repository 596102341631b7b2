package core

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSize is one memory size's numeric inputs as FuzzPlanGrid decodes them.
type fuzzSize struct {
	maxDeg                                        byte // MaxDegree is 1 + maxDeg%64
	alpha, intercept, b1, b2, b3, rate, storageFn float64
}

// planGridHeader is the payload's byte header: the size count, three
// MaxDegree bytes, a minimum-degree byte and a little-endian int32
// concurrency. The float64s follow: the quantile, W_S, the QoS bound, then
// seven per size.
const planGridHeader = 9

// encodePlanGrid is decodePlanGrid's inverse, used to build seed inputs.
func encodePlanGrid(sizes []fuzzSize, minDeg byte, c int32, q, ws, qos float64) []byte {
	out := []byte{byte(len(sizes) - 1), 0, 0, 0, minDeg}
	for i, s := range sizes {
		out[1+i] = s.maxDeg
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(c))
	for _, v := range []float64{q, ws, qos} {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	for _, s := range sizes {
		for _, v := range []float64{s.alpha, s.intercept, s.b1, s.b2, s.b3, s.rate, s.storageFn} {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// decodePlanGrid reads a payload into a grid of one to three sizes at
// 1024 MB steps, a concurrency, a minimum degree, a service quantile, weights
// and a QoS bound. Missing bytes read as zero. A quantile outside (0, 100]
// reads as 100 and a W_S outside [0, 1] as 0.5, so every payload asks a
// question the planner answers; the model coefficients and the concurrency
// are taken as they come, and Validate judges them.
func decodePlanGrid(data []byte) (g GridModels, c, minDeg int, q float64, w Weights, qos float64) {
	buf := make([]byte, planGridHeader+8*(3+7*3))
	copy(buf, data)
	f := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[planGridHeader+8*i:]))
	}
	g.Sizes = make([]SizeModels, 1+int(buf[0])%3)
	for i := range g.Sizes {
		at := 3 + 7*i
		g.Sizes[i] = SizeModels{MemMB: float64(1024 * (i + 1)), Models: Models{
			ET:                 ETModel{MfuncGB: 0.5, Alpha: f(at), Intercept: f(at + 1)},
			Scaling:            ScalingModel{B1: f(at + 2), B2: f(at + 3), B3: f(at + 4)},
			RatePerInstanceSec: f(at + 5),
			Storage:            StorageModel{PerFunctionUSD: f(at + 6)},
			MaxDegree:          1 + int(buf[1+i])%64,
		}}
	}
	c = int(int32(binary.LittleEndian.Uint32(buf[5:])))
	minDeg = 1 + int(buf[4])
	if q = f(0); !(q > 0 && q <= 100) {
		q = 100
	}
	ws := f(1)
	if !(ws >= 0 && ws <= 1) {
		ws = 0.5
	}
	return g, c, minDeg, q, Weights{Service: ws, Expense: 1 - ws}, f(2)
}

// FuzzPlanGrid holds the planner to the test-side naive references on
// arbitrary numeric inputs: argminJoint must return naiveArgminGrid's cell
// (at the decoded quantile, over every degree and over degrees ≥ a decoded
// minimum), qosSearchJoint naiveQoSJoint's weights or error text, and
// Planner.Answer the plans at those cells, over the grid and over its base
// size alone; and a MeasuredPlanner over a row's own columns the row's
// degree. Overflowing ET curves, zero prices and NaN cells are all in
// reach; whatever the input, nothing may panic, and a stack that fails
// Validate must come back as an error.
func FuzzPlanGrid(f *testing.F) {
	lambda := fuzzSize{maxDeg: 39, alpha: 0.3, intercept: 2, b1: 1e-6, b2: 0.004, b3: 0.1, rate: 1.6667e-5 * 2, storageFn: 1e-7}
	free := lambda
	free.rate, free.storageFn = 0, 0 // a zero-price stack: every expense is 0
	overflow := free
	overflow.alpha = 400 // ET overflows to +Inf: NaN expense cells (Inf·0)
	overflowAt1 := overflow
	overflowAt1.alpha, overflowAt1.intercept = -400, 2000 // +Inf at degree 1
	f.Add(encodePlanGrid([]fuzzSize{lambda}, 0, 5000, 100, 0.5, 300))
	f.Add(encodePlanGrid([]fuzzSize{free}, 0, 5000, 100, 1, 300))
	f.Add(encodePlanGrid([]fuzzSize{free}, 0, 5000, 95, 0, 60))
	f.Add(encodePlanGrid([]fuzzSize{free, lambda, overflow}, 3, 2000, 50, 1, 120))
	f.Add(encodePlanGrid([]fuzzSize{overflow, overflowAt1}, 0, 20000, 95, 0.5, 1e9))
	f.Add(encodePlanGrid([]fuzzSize{lambda, overflowAt1, free}, 7, 1, 99.5, 0.7, 1))
	f.Add(encodePlanGrid([]fuzzSize{lambda}, 0, -3, 100, 0.5, math.NaN()))
	f.Add(encodePlanGrid([]fuzzSize{free, lambda}, 0, 5000, 100, 0.5, 300)) // Eq. 7 over a zero expense baseline
	f.Fuzz(func(t *testing.T, data []byte) {
		g, c, minDeg, q, w, qos := decodePlanGrid(data)
		sizes := g.MemSizesMB()
		if g.Validate() != nil || c < 1 {
			if _, err := g.Answer(Request{C: c, Weights: w, SizesMB: sizes}); err == nil {
				t.Fatalf("Answer accepted an invalid stack or concurrency: c=%d grid=%+v", c, g)
			}
			return
		}
		gt := newGridTable(g, c)
		if minDeg > gt.maxDegreeAny() {
			minDeg = 1
		}
		for _, md := range []int{1, minDeg} {
			gsi, gdeg := gt.argminJoint(q, md, w)
			if wsi, wdeg := naiveArgminGrid(g, c, q, md, w); gsi != wsi || gdeg != wdeg {
				t.Fatalf("argminJoint(q=%g, minDeg=%d, %+v) = (%d,%d), naive (%d,%d); c=%d grid=%+v",
					q, md, w, gsi, gdeg, wsi, wdeg, c, g)
			}
		}

		for _, sz := range g.Sizes { // each row's columns, measured, plan as the row does
			checkMeasuredIdentity(t, NewPlanner(sz.Models), c, w)
		}

		jpl, err := NewJointPlanner(g)
		if err != nil {
			t.Fatal(err)
		}
		si, deg := naiveArgminGrid(g, c, 100, 1, w)
		if got, err := jpl.Answer(Request{C: c, Weights: w, SizesMB: sizes}); err != nil || !jointPlanEq(got, gt.plan(si, deg, w)) {
			t.Fatalf("Answer over the grid = %+v (%v), naive cell (%d,%d); c=%d w=%+v grid=%+v", got, err, si, deg, c, w, g)
		}
		base := GridModels{Sizes: g.Sizes[len(g.Sizes)-1:]}
		_, bdeg := naiveArgminGrid(base, c, 100, 1, w)
		if got, err := jpl.Answer(Request{C: c, Weights: w}); err != nil || !planEq(got.Plan, newGridTable(base, c).plan(0, bdeg, w).Plan) {
			t.Fatalf("Answer at the base size = %+v (%v), naive degree %d; c=%d w=%+v grid=%+v", got, err, bdeg, c, w, g)
		}

		if !(qos > 0) || math.IsInf(qos, 1) {
			return // a Request's bound is positive and finite
		}
		gotW, gotErr := qosSearchJoint(gt, qos, 95, 0.05)
		wantW, wantErr := naiveQoSJoint(g, c, qos, 95, 0.05)
		if errStr(gotErr) != errStr(wantErr) || gotW != wantW {
			t.Fatalf("qosSearchJoint(%g) = (%+v, %v), naive (%+v, %v); c=%d grid=%+v", qos, gotW, gotErr, wantW, wantErr, c, g)
		}
		got, err := jpl.Answer(Request{C: c, Weights: w, QoSSec: qos, SizesMB: sizes})
		if errStr(err) != errStr(wantErr) {
			t.Fatalf("Answer with bound %g: error %v, naive %v", qos, err, wantErr)
		}
		if err == nil {
			si, deg := naiveArgminGrid(g, c, 100, 1, wantW)
			if want := gt.plan(si, deg, wantW); !jointPlanEq(got, want) {
				t.Fatalf("Answer with bound %g = %+v, naive %+v", qos, got, want)
			}
		}
	})
}
