package propack

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/localfaas"
	"repro/internal/platform"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// validatorTypes parses the module's non-test sources and returns every
// exported type with a `Validate() error` method, as "package.Type".
func validatorTypes(t *testing.T) []string {
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "Validate" || fn.Type.Params.NumFields() != 0 ||
				fn.Type.Results.NumFields() != 1 {
				continue
			}
			if res, ok := fn.Type.Results.List[0].Type.(*ast.Ident); !ok || res.Name != "error" {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
				out = append(out, f.Name.Name+"."+id.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// floatFields calls visit on every float64 reachable from v through
// exported struct fields and slice elements, with its path.
func floatFields(v reflect.Value, path string, visit func(path string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Float64:
		visit(path, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				floatFields(v.Field(i), path+"."+f.Name, visit)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			floatFields(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	}
}

// TestValidateRejectsNonFiniteEverywhere is the non-finite walk over every
// validator in the module. Each exported struct with a Validate() error
// method — found by parsing the source, so a new one cannot be missed —
// starts from a valid value, and each float field it reaches, nested structs
// and slice elements included, is set in turn to NaN, +Inf and −Inf:
// Validate must return an error. The fields are enumerated by reflection, so
// a new one cannot skip the walk. PlanMixed's options, which have no
// Validate of their own, are walked through PlanMixed.
func TestValidateRejectsNonFiniteEverywhere(t *testing.T) {
	video := workload.Video{}.Demand()
	models := func() core.Models {
		return core.Models{
			ET:                 core.ETModel{MfuncGB: 0.5, Alpha: 0.3, Intercept: 0.2},
			Scaling:            core.ScalingModel{B1: 2e-6, B2: 0.004, B3: 0.1},
			Storage:            core.StorageModel{PerInstanceUSD: 1e-6, PerFunctionUSD: 1e-7},
			RatePerInstanceSec: 1e-4,
			MaxDegree:          8,
		}
	}
	app := func(name string) core.App {
		return core.App{Name: name, MemoryMB: 512, Count: 6, ET: core.ETModel{MfuncGB: 0.5, Alpha: 0.3, Intercept: 0.2}}
	}
	validate := func(v any) error { return v.(interface{ Validate() error }).Validate() }
	cases := []struct {
		name  string
		valid func() any // a fresh valid value: slices must not be shared
		check func(v any) error
	}{
		{"platform.Config", func() any {
			cfg := platform.AWSLambda()
			cfg.StragglerProb, cfg.StragglerFactor = 0.05, 2 // a fault knob's value is read only when it is on
			return cfg
		}, validate},
		{"platform.Burst", func() any { return platform.Burst{Demand: video, Functions: 8, Degree: 1, StaggerSec: 0.01} }, validate},
		{"interfere.Demand", func() any { return video }, validate},
		{"interfere.Shape", func() any { return platform.AWSLambda().Shape }, validate},
		{"resilience.Backoff", func() any {
			return resilience.Backoff{Kind: resilience.Exponential, BaseSec: 0.5, CapSec: 10, Factor: 2, MaxAttempts: 3, MaxElapsedSec: 60}
		}, validate},
		{"resilience.Hedge", func() any { return resilience.Hedge{Quantile: 95, MinDelaySec: 1} }, validate},
		{"localfaas.Job", func() any {
			return localfaas.Job{Workload: workload.Video{}, Functions: 4, Degree: 2, CoresPerInstance: 1, RatePerInstanceSec: 1e-4,
				Retry: resilience.Backoff{BaseSec: 0.1}}
		}, validate},
		{"core.App", func() any { return app("a") }, validate},
		{"core.Models", func() any { return models() }, validate},
		{"core.GridModels", func() any {
			return core.GridModels{Sizes: []core.SizeModels{{MemMB: 1024, Models: models()}, {MemMB: 2048, Models: models()}}}
		}, validate},
		{"core.Weights", func() any { return core.Balanced() }, validate},
		{"core.FailureModel", func() any { return core.FailureModel{CrashRate: 1e-3, RetryDelaySec: 5} }, validate},
		{"core.MixedPlanOptions", func() any {
			return core.MixedPlanOptions{InstanceMemoryMB: 3072, MaxExecSec: 900, Weights: core.Balanced(),
				Scaling: core.ScalingModel{B1: 2e-6, B2: 0.004, B3: 0.1}, RatePerInstanceSec: 1e-4, CrossDiscount: 0.2}
		}, func(v any) error {
			_, err := core.PlanMixed([]core.App{app("a"), app("b")}, v.(core.MixedPlanOptions))
			return err
		}},
	}
	// allowed are the non-finite values a field legitimately takes: an
	// infinite execution limit is no limit.
	allowed := map[string]float64{
		"platform.Config.MaxExecSec":       math.Inf(1),
		"core.MixedPlanOptions.MaxExecSec": math.Inf(1),
	}

	var tabled []string
	for _, tc := range cases {
		if _, ok := tc.valid().(interface{ Validate() error }); ok {
			tabled = append(tabled, tc.name)
		}
	}
	sort.Strings(tabled)
	if found := validatorTypes(t); !reflect.DeepEqual(found, tabled) {
		t.Fatalf("the source declares Validate() error on %v, the table covers %v", found, tabled)
	}

	for _, tc := range cases {
		if reflect.TypeOf(tc.valid()).String() != tc.name {
			t.Fatalf("case %s builds a %T", tc.name, tc.valid())
		}
		if err := tc.check(tc.valid()); err != nil {
			t.Fatalf("%s: the valid value fails: %v", tc.name, err)
		}
		var paths []string
		v := reflect.ValueOf(tc.valid())
		floatFields(v, tc.name, func(path string, _ reflect.Value) { paths = append(paths, path) })
		if len(paths) == 0 {
			t.Fatalf("%s has no float field reachable", tc.name)
		}
		for _, path := range paths {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				if want, ok := allowed[path]; ok && want == bad {
					continue
				}
				rv := reflect.New(v.Type()).Elem()
				rv.Set(reflect.ValueOf(tc.valid()))
				floatFields(rv, tc.name, func(p string, f reflect.Value) {
					if p == path {
						f.SetFloat(bad)
					}
				})
				if err := tc.check(rv.Interface()); err == nil {
					t.Errorf("%s = %v validated clean", path, bad)
				}
			}
		}
	}
}
