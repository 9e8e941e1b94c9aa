package main

import "testing"

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one nested child", []span{{Start: 10, End: 30}}, 80},
		{"disjoint children", []span{{Start: 10, End: 30}, {Start: 50, End: 60}}, 70},
		{"overlapping children", []span{{Start: 10, End: 40}, {Start: 30, End: 60}}, 50},
		{"child inside a sibling", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"children out of order", []span{{Start: 70, End: 80}, {Start: 10, End: 20}, {Start: 15, End: 25}}, 75},
		{"child outliving the parent", []span{{Start: 90, End: 130}}, 90},
		{"child before the parent", []span{{Start: -20, End: -5}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimesOverATree(t *testing.T) {
	// op [0,100] has children parse [0,10] and exec [10,90]; exec has a
	// child [20,50] and a concurrent one [40,70] that overlaps it.
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "parse", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "exec", Start: 10, End: 90},
		{ID: 4, Parent: 3, Name: "scan", Start: 20, End: 50},
		{ID: 5, Parent: 3, Name: "scan", Start: 40, End: 70},
	}
	got := selfTimes(spans, byName)
	want := map[string]layerTime{
		"op":    {Count: 1, SelfNS: 10},
		"parse": {Count: 1, SelfNS: 10},
		"exec":  {Count: 1, SelfNS: 30},
		"scan":  {Count: 2, SelfNS: 60},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
}

func TestTracerRecordsParents(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0, 0); id != 0 {
		t.Fatalf("a nil tracer returned span id %d", id)
	}
	off.end(0)
	tr := newTracer()
	root := tr.begin("op", 0, 7)
	child := tr.begin("exec", root, 7)
	tr.tag(child, "EDIT")
	tr.end(child)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].Tag != "EDIT" || s[0].Stmt != 7 || s[0].End < s[1].End {
		t.Fatalf("spans %+v", s)
	}
}
