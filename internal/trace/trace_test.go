package trace

import "testing"

func TestCounts(t *testing.T) {
	var c Counts
	c.Ref(Ref{Kind: Ifetch, Addr: 0, Size: 4})
	c.Ref(Ref{Kind: Ifetch, Addr: 4, Size: 4})
	c.Ref(Ref{Kind: Load, Addr: 100, Size: 8})
	c.Ref(Ref{Kind: Store, Addr: 200, Size: 4})
	if c.Ifetches != 2 || c.Loads != 1 || c.Stores != 1 || c.Total() != 4 {
		t.Errorf("counts = %+v", c)
	}
	if c.LoadFrac() != 0.5 || c.StoreFrac() != 0.5 {
		t.Errorf("fractions = %v/%v", c.LoadFrac(), c.StoreFrac())
	}
}

func TestCountsEmpty(t *testing.T) {
	var c Counts
	if c.LoadFrac() != 0 || c.StoreFrac() != 0 {
		t.Error("fractions of empty counts must be 0")
	}
}

func TestTee(t *testing.T) {
	var a, b Counts
	tee := Tee{&a, &b}
	tee.Ref(Ref{Kind: Load})
	if a.Loads != 1 || b.Loads != 1 {
		t.Error("tee did not duplicate")
	}
}

func TestSinkFuncAndDiscard(t *testing.T) {
	n := 0
	SinkFunc(func(Ref) { n++ }).Ref(Ref{})
	if n != 1 {
		t.Error("SinkFunc did not invoke")
	}
	Discard.Ref(Ref{Kind: Load}) // must not panic
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Ifetch: "ifetch", Load: "load", Store: "store", Kind(9): "unknown",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
