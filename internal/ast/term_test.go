package ast

import (
	"testing"
	"testing/quick"
)

func TestTemporalTermString(t *testing.T) {
	cases := []struct {
		term TemporalTerm
		want string
	}{
		{TemporalTerm{}, "0"},
		{TemporalTerm{Depth: 7}, "7"},
		{TemporalTerm{Var: "T"}, "T"},
		{TemporalTerm{Var: "T", Depth: 3}, "T+3"},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestTemporalTermGroundAndShift(t *testing.T) {
	g := TemporalTerm{Depth: 2}
	if !g.Ground() {
		t.Errorf("ground term reported non-ground")
	}
	v := TemporalTerm{Var: "T", Depth: 2}
	if v.Ground() {
		t.Errorf("variable term reported ground")
	}
	if got := v.Shift(3); got.Depth != 5 || got.Var != "T" {
		t.Errorf("Shift(3) = %v", got)
	}
	if got := v.Shift(-2); got.Depth != 0 {
		t.Errorf("Shift(-2) = %v", got)
	}
}

func TestTemporalTermShiftPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative depth")
		}
	}()
	TemporalTerm{Var: "T", Depth: 1}.Shift(-2)
}

func TestSymbolString(t *testing.T) {
	cases := []struct {
		sym  Symbol
		want string
	}{
		{Var("X"), "X"},
		{Const("hunter"), "hunter"},
		{Const("a_b1"), "a_b1"},
		{Const("Hunter"), "'Hunter'"},
		{Const("new york"), "'new york'"},
		{Const("it's"), `'it\'s'`},
		{Const(""), "''"},
		{Const("12/25/89"), "'12/25/89'"},
		{Const("42"), "42"},
		{Const("0"), "0"},
		{Const("0000"), "'0000'"},
		{Const("3com"), "'3com'"},
		{Const("1234567890"), "'1234567890'"},
	}
	for _, c := range cases {
		if got := c.sym.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.sym, got, c.want)
		}
	}
}

// Property: shifting by +d then -d is the identity on non-negative depths.
func TestShiftRoundTrip(t *testing.T) {
	f := func(depth uint8, d uint8) bool {
		term := TemporalTerm{Var: "T", Depth: int(depth)}
		return term.Shift(int(d)).Shift(-int(d)) == term
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
