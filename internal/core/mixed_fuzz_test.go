package core

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// fuzzMixedApp is one app's numeric inputs as FuzzPlanMixed decodes them.
type fuzzMixedApp struct {
	memMant          uint16 // MemoryMB is (1+memMant)·2^−(memExp%32); MfuncGB its 1/1024
	memExp           byte   // with its top bit set: InstanceMemoryMB/(1+memMant), memExp%4 ulps up
	count            uint16 // Count is 1 + count%256
	alpha, intercept float64
}

// fuzzMixedJob is a whole FuzzPlanMixed input before decoding.
type fuzzMixedJob struct {
	apps                            []fuzzMixedApp
	instance, disc, ws              byte // InstanceMemoryMB 1024·(1+instance%10), discount disc/255, W_S (ws%11)/10
	maxExec, rate                   float64
	scalingB1, scalingB2, scalingB3 float64
}

// mixedHeader is the payload's byte header: the app count, the instance,
// discount and weight bytes. Five float64s follow (MaxExecSec, the rate and
// B1–B3), then per app five bytes and two float64s.
const (
	mixedHeader  = 4
	mixedAppSize = 5 + 16
)

// encodePlanMixed is decodePlanMixed's inverse, used to build seed inputs.
func encodePlanMixed(j fuzzMixedJob) []byte {
	out := []byte{byte(len(j.apps) - 1), j.instance, j.disc, j.ws}
	for _, v := range []float64{j.maxExec, j.rate, j.scalingB1, j.scalingB2, j.scalingB3} {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	for _, a := range j.apps {
		out = binary.LittleEndian.AppendUint16(out, a.memMant)
		out = append(out, a.memExp)
		out = binary.LittleEndian.AppendUint16(out, a.count)
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(a.alpha))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(a.intercept))
	}
	return out
}

// decodePlanMixed reads a payload into a job of one to six apps. Missing
// bytes read as zero. Every option is one PlanMixed accepts: a MaxExecSec
// that is not positive reads as +Inf (no limit), a rate that is negative or
// not finite as 0, a non-finite scaling coefficient as 0. Memory is a
// 16-bit mantissa over a power of two, so the instance-to-function ratio is
// an exact fraction whose floor no rounding moves, or, when memExp's top bit
// is set, an exact divisor of the instance nudged up by up to three ulps,
// whose ratio rounds back up onto the divisor; the ET coefficients are
// taken as they come, and App.Validate judges them.
func decodePlanMixed(data []byte) ([]App, MixedPlanOptions) {
	buf := make([]byte, mixedHeader+8*5+6*mixedAppSize)
	copy(buf, data)
	f := func(at int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(buf[at:])) }
	finiteOr0 := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return x
	}
	ws := float64(buf[3]%11) / 10
	opts := MixedPlanOptions{
		InstanceMemoryMB:   1024 * float64(1+buf[1]%10),
		MaxExecSec:         f(mixedHeader),
		Weights:            Weights{Service: ws, Expense: 1 - ws},
		Scaling:            ScalingModel{B1: finiteOr0(f(mixedHeader + 16)), B2: finiteOr0(f(mixedHeader + 24)), B3: finiteOr0(f(mixedHeader + 32))},
		RatePerInstanceSec: f(mixedHeader + 8),
		CrossDiscount:      float64(buf[2]) / 255,
	}
	if !(opts.MaxExecSec > 0) {
		opts.MaxExecSec = math.Inf(1)
	}
	if !(opts.RatePerInstanceSec >= 0) || math.IsInf(opts.RatePerInstanceSec, 1) {
		opts.RatePerInstanceSec = 0
	}
	apps := make([]App, 1+int(buf[0])%6)
	for i := range apps {
		at := mixedHeader + 8*5 + mixedAppSize*i
		mant, exp := float64(1+int(binary.LittleEndian.Uint16(buf[at:]))), buf[at+2]
		mem := math.Ldexp(mant, -int(exp%32))
		if exp&0x80 != 0 {
			mem = opts.InstanceMemoryMB / mant
			for range exp % 4 {
				mem = math.Nextafter(mem, math.Inf(1))
			}
		}
		apps[i] = App{
			MemoryMB: mem,
			Count:    1 + int(binary.LittleEndian.Uint16(buf[at+3:]))%256,
			ET:       ETModel{MfuncGB: mem / 1024, Alpha: f(at + 5), Intercept: f(at + 13)},
		}
	}
	return apps, opts
}

// FuzzPlanMixed holds PlanMixed to naivePlanMixed on arbitrary jobs of one
// to six apps — tiny and oversized footprints, negative pressures,
// overflowing ETs, no execution limit, a zero rate, any discount. Whatever
// the input, nothing may panic, and PlanMixed must fail exactly when the
// reference does. A plan must hold every app's count, keep every bin within
// the instance memory, name one of the two strategies and, when no
// candidate cell is NaN (the reference's math.Min baselines do not skip
// one), be the reference's plan.
func FuzzPlanMixed(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		apps, opts := decodePlanMixed(data)
		got, gotErr := PlanMixed(apps, opts)
		want, wantErr := naivePlanMixed(apps, opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("PlanMixed error %v, naive %v (apps=%+v opts=%+v)", gotErr, wantErr, apps, opts)
		}
		if gotErr != nil {
			return
		}
		if got.Strategy != "mixed" && got.Strategy != "segregated" {
			t.Fatalf("strategy %q", got.Strategy)
		}
		totals := make([]int, len(apps))
		for _, bin := range got.BinCounts {
			var mem float64
			for k, n := range bin {
				totals[k] += n
				mem += float64(n) * apps[k].MemoryMB
			}
			if mem > opts.InstanceMemoryMB {
				t.Fatalf("bin %v needs %g MB of %g (apps=%+v)", bin, mem, opts.InstanceMemoryMB, apps)
			}
		}
		for k, a := range apps {
			if totals[k] != a.Count {
				t.Fatalf("app %d: %d functions planned, want %d (apps=%+v opts=%+v)", k, totals[k], a.Count, apps, opts)
			}
		}
		svc, exp, _ := mixedCandidates(apps, opts)
		svc, exp = segregatedCandidates(apps, segregatedDegrees(apps, opts), opts, svc, exp)
		for i := range svc {
			if math.IsNaN(svc[i]) || math.IsNaN(exp[i]) {
				return
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("PlanMixed=%+v, naive=%+v (apps=%+v opts=%+v)", got, want, apps, opts)
		}
	})
}
