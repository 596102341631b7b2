package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// fuzzSize is one memory size's numeric inputs as FuzzPlanGrid decodes them.
type fuzzSize struct {
	maxDeg                                        byte // MaxDegree is 1 + maxDeg%64
	alpha, intercept, b1, b2, b3, rate, storageFn float64
}

// planGridHeader is the payload's byte header: the size count, three
// MaxDegree bytes, a minimum-degree byte, and little-endian int32s for the
// concurrency and the instance cap. The float64s follow: the quantile, W_S,
// the QoS bound, then seven per size.
const planGridHeader = 13

// encodePlanGrid is decodePlanGrid's inverse, used to build seed inputs.
func encodePlanGrid(sizes []fuzzSize, minDeg byte, c, maxInst int32, q, ws, qos float64) []byte {
	out := []byte{byte(len(sizes) - 1), 0, 0, 0, minDeg}
	for i, s := range sizes {
		out[1+i] = s.maxDeg
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(c))
	out = binary.LittleEndian.AppendUint32(out, uint32(maxInst))
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
// 1024 MB steps, a concurrency, a minimum degree, an instance cap, a service
// quantile, weights and a QoS bound. Missing bytes read as zero. A W_S
// outside [0, 1] reads as 0.5; the model coefficients, the concurrency, the
// cap and the quantile are taken as they come, and Validate judges them.
func decodePlanGrid(data []byte) (g GridModels, c, minDeg, maxInst int, q float64, w Weights, qos float64) {
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
	maxInst = int(int32(binary.LittleEndian.Uint32(buf[9:])))
	minDeg = 1 + int(buf[4])
	ws := f(1)
	if !(ws >= 0 && ws <= 1) {
		ws = 0.5
	}
	return g, c, minDeg, maxInst, f(0), Weights{Service: ws, Expense: 1 - ws}, f(2)
}

// FuzzPlanGrid holds the planner to the test-side naive references on
// arbitrary numeric inputs: argminJoint must return naiveArgminGrid's cell
// (at the decoded quantile, over every degree and over degrees ≥ a decoded
// minimum), qosSearchJoint naiveQoSJoint's weights or error text, and
// Planner.Answer the plans at those cells — weighted, at the decoded quantile
// and under the decoded instance cap, or refused as the naive reading of
// those two refuses them — over the grid and over its base size alone; and a
// MeasuredPlanner over a row's own columns the row's plan. Every plan Answer
// gives meets checkAnswer. Overflowing ET curves, zero prices and NaN cells
// are all in reach; whatever the input, nothing may panic, and a stack that
// fails Validate must come back as an error.
func FuzzPlanGrid(f *testing.F) {
	lambda := fuzzSize{maxDeg: 39, alpha: 0.3, intercept: 2, b1: 1e-6, b2: 0.004, b3: 0.1, rate: 1.6667e-5 * 2, storageFn: 1e-7}
	free := lambda
	free.rate, free.storageFn = 0, 0 // a zero-price stack: every expense is 0
	overflow := free
	overflow.alpha = 400 // ET overflows to +Inf: NaN expense cells (Inf·0)
	overflowAt1 := overflow
	overflowAt1.alpha, overflowAt1.intercept = -400, 2000 // +Inf at degree 1
	f.Add(encodePlanGrid([]fuzzSize{lambda}, 0, 5000, 0, 100, 0.5, 300))
	f.Add(encodePlanGrid([]fuzzSize{free}, 0, 5000, 0, 100, 1, 300))
	f.Add(encodePlanGrid([]fuzzSize{free}, 0, 5000, 0, 95, 0, 60))
	f.Add(encodePlanGrid([]fuzzSize{free, lambda, overflow}, 3, 2000, 0, 50, 1, 120))
	f.Add(encodePlanGrid([]fuzzSize{overflow, overflowAt1}, 0, 20000, 0, 95, 0.5, 1e9))
	f.Add(encodePlanGrid([]fuzzSize{lambda, overflowAt1, free}, 7, 1, 0, 99.5, 0.7, 1))
	f.Add(encodePlanGrid([]fuzzSize{lambda}, 0, -3, 0, 100, 0.5, math.NaN()))
	f.Add(encodePlanGrid([]fuzzSize{free, lambda}, 0, 5000, 0, 100, 0.5, 300)) // Eq. 7 over a zero expense baseline
	f.Add(encodePlanGrid([]fuzzSize{lambda}, 0, 5000, 5000, 95, 0.5, 300))     // a cap of C: no cap at all
	f.Add(encodePlanGrid([]fuzzSize{lambda, free}, 0, 30, 1, 50, 0.5, 300))    // a cap of 1: degrees ≥ C
	f.Add(encodePlanGrid([]fuzzSize{lambda}, 0, 5000, 0, math.NaN(), 0.5, 300))
	f.Add(encodePlanGrid([]fuzzSize{lambda}, 0, 5000, 0, 120, 0.5, 300))
	f.Add(encodePlanGrid([]fuzzSize{lambda, free}, 0, 5000, 100, 0, 0.5, 300)) // fits at no degree ≤ 40
	f.Add(encodePlanGrid([]fuzzSize{free, lambda, overflow}, 0, 5000, 300, 95, 0.3, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, c, minDeg, maxInst, rawQ, w, qos := decodePlanGrid(data)
		sizes := g.MemSizesMB()
		if g.Validate() != nil || c < 1 {
			if _, err := g.Answer(Request{C: c, Weights: w, SizesMB: sizes}); err == nil {
				t.Fatalf("Answer accepted an invalid stack or concurrency: c=%d grid=%+v", c, g)
			}
			return
		}
		q := rawQ
		if !(q > 0 && q <= 100) {
			q = 100
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
		base := GridModels{Sizes: g.Sizes[len(g.Sizes)-1:]}
		// answer holds Answer to the naive plan of the request over grid gm
		// (the joint planner's own grid, or its base size) and to checkAnswer.
		answer := func(r Request, gm GridModels, wantErr string) {
			t.Helper()
			got, err := jpl.Answer(r)
			if wantErr != "" {
				if errStr(err) != wantErr {
					t.Fatalf("Answer(%+v) = %+v (%v), want the error %q; grid=%+v", r, got, err, wantErr, g)
				}
				return
			}
			aq, md := r.Quantile, 1
			if aq == 0 {
				aq = 100
			}
			if r.MaxInstances > 0 {
				md = CeilDiv(c, r.MaxInstances)
			}
			si, deg := naiveArgminGrid(gm, c, aq, md, w)
			want := newGridTable(gm, c).plan(si, deg, w)
			if len(r.SizesMB) == 0 {
				want.MemMB = 0
			}
			if err != nil || !jointPlanEq(got, want) {
				t.Fatalf("Answer(%+v) = %+v (%v), naive cell (%d,%d) %+v; grid=%+v", r, got, err, si, deg, want, g)
			}
			if err := checkAnswer(jpl, r, got); err != nil {
				t.Fatalf("Answer(%+v) = %+v: %v; grid=%+v", r, got, err, g)
			}
		}
		answer(Request{C: c, Weights: w, SizesMB: sizes}, g, "")
		answer(Request{C: c, Weights: w}, base, "")

		// The decoded quantile and cap, refused as their naive reading
		// refuses them: a quantile outside (0, 100] or a negative cap by
		// Validate, a cap no degree fits by the search.
		wantErr := ""
		switch {
		case rawQ != 0 && !(rawQ > 0 && rawQ <= 100):
			wantErr = fmt.Sprintf("core: quantile %g outside (0,100] (0 for the total)", rawQ)
		case maxInst < 0:
			wantErr = fmt.Sprintf("core: instance cap %d < 0 (0 for none)", maxInst)
		}
		for _, overGrid := range []bool{true, false} {
			r, gm := Request{C: c, Weights: w, Quantile: rawQ, MaxInstances: maxInst}, base
			if overGrid {
				r.SizesMB, gm = sizes, g
			}
			maxDeg := 0
			for _, s := range gm.Sizes {
				maxDeg = max(maxDeg, s.Models.MaxDegree)
			}
			want := wantErr
			if want == "" && maxInst > 0 && CeilDiv(c, maxInst) > maxDeg {
				want = fmt.Sprintf("core: concurrency %d cannot fit %d instances even at degree %d", c, maxInst, maxDeg)
			}
			answer(r, gm, want)
		}

		if !(qos > 0) || math.IsInf(qos, 1) {
			return // a Request's bound is positive and finite
		}
		gotW, gotErr := qosSearchJoint(gt, qos, 95, 0.05)
		wantW, qosErr := naiveQoSJoint(g, c, qos, 95, 0.05)
		if errStr(gotErr) != errStr(qosErr) || gotW != wantW {
			t.Fatalf("qosSearchJoint(%g) = (%+v, %v), naive (%+v, %v); c=%d grid=%+v", qos, gotW, gotErr, wantW, qosErr, c, g)
		}
		bounded := Request{C: c, Weights: w, QoSSec: qos, SizesMB: sizes}
		got, err := jpl.Answer(bounded)
		if errStr(err) != errStr(qosErr) {
			t.Fatalf("Answer with bound %g: error %v, naive %v", qos, err, qosErr)
		}
		if err == nil {
			si, deg := naiveArgminGrid(g, c, 100, 1, wantW)
			if want := gt.plan(si, deg, wantW); !jointPlanEq(got, want) {
				t.Fatalf("Answer with bound %g = %+v, naive %+v", qos, got, want)
			}
			if err := checkAnswer(jpl, bounded, got); err != nil {
				t.Fatalf("Answer with bound %g = %+v: %v; grid=%+v", qos, got, err, g)
			}
		}
	})
}
