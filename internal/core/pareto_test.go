package core

import "testing"

func TestParetoFrontierContainsOptima(t *testing.T) {
	m := synthModels()
	const c = 4000
	frontier, err := m.ParetoFrontier(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(frontier) == 0 {
		t.Fatal("empty frontier")
	}
	has := func(deg int) bool {
		for _, p := range frontier {
			if p.Degree == deg {
				return true
			}
		}
		return false
	}
	if !has(degreeFor(t, m, c, ServiceOnly())) {
		t.Fatal("service optimum missing from frontier")
	}
	if !has(degreeFor(t, m, c, ExpenseOnly())) {
		t.Fatal("expense optimum missing from frontier")
	}
	// Every Eq. 7 weighting's optimum must be on the frontier.
	for _, ws := range []float64{0, 0.25, 0.5, 0.75, 1} {
		deg := degreeFor(t, m, c, Weights{Service: ws, Expense: 1 - ws})
		if !has(deg) {
			t.Fatalf("W_S=%g optimum (degree %d) not on frontier", ws, deg)
		}
	}
}

func TestParetoFrontierNonDominated(t *testing.T) {
	m := synthModels()
	frontier, err := m.ParetoFrontier(3000)
	if err != nil {
		t.Fatal(err)
	}
	prevDeg := 0
	for i, a := range frontier {
		if a.Degree <= prevDeg {
			t.Fatal("frontier not in increasing degree order")
		}
		prevDeg = a.Degree
		for j, b := range frontier {
			if i == j {
				continue
			}
			if b.ServiceSec <= a.ServiceSec && b.ExpenseUSD <= a.ExpenseUSD &&
				(b.ServiceSec < a.ServiceSec || b.ExpenseUSD < a.ExpenseUSD) {
				t.Fatalf("frontier point %+v dominated by %+v", a, b)
			}
		}
	}
}

func TestParetoFrontierErrors(t *testing.T) {
	m := synthModels()
	if _, err := m.ParetoFrontier(0); err == nil {
		t.Fatal("C=0 accepted")
	}
	bad := m
	bad.MaxDegree = 0
	if _, err := bad.ParetoFrontier(10); err == nil {
		t.Fatal("invalid models accepted")
	}
}
