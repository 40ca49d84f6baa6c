package segment_test

import (
	"testing"

	"progressdb/internal/optimizer"
	"progressdb/internal/segment"
)

func TestSegmentKinds(t *testing.T) {
	cat := buildCatalog(t)

	// In-memory hybrid join (big work_mem): build segment is segment.KindHashBuild.
	p := planFor(t, cat,
		"select c.custkey, o.orderkey from customer c, orders o where c.custkey = o.custkey",
		optimizer.Options{WorkMemPages: 4096})
	d := segment.Decompose(p, 4096)
	if len(d.Segments) != 2 {
		t.Fatalf("want 2 segments:\n%s", d)
	}
	if d.Segments[0].Kind != segment.KindHashBuild {
		t.Fatalf("build segment kind = %v", d.Segments[0].Kind)
	}
	if d.Segments[1].Kind != segment.KindFinal {
		t.Fatalf("final segment kind = %v", d.Segments[1].Kind)
	}

	// Grace join: the top join's build (the c⋈o intermediate, ~36 KB)
	// exceeds one page of work_mem, so both of its sides partition.
	pg := planFor(t, cat, `
		select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey`,
		optimizer.Options{WorkMemPages: 1})
	dg := segment.Decompose(pg, 1)
	nPart := 0
	for _, s := range dg.Segments {
		if s.Kind == segment.KindPartition {
			nPart++
		}
	}
	if nPart < 2 {
		t.Fatalf("grace join wants >=2 partition segments:\n%s", dg)
	}

	// Forced merge join: sort segments.
	pm := planFor(t, cat,
		"select c.custkey from customer c, orders o where c.custkey = o.custkey",
		optimizer.Options{ForceJoinAlgo: "merge"})
	dm := segment.Decompose(pm, 2048)
	if dm.Segments[0].Kind != segment.KindSort || dm.Segments[1].Kind != segment.KindSort {
		t.Fatalf("sort kinds: %v %v", dm.Segments[0].Kind, dm.Segments[1].Kind)
	}

	// NL with projected inner: materialize segment.
	pn := planFor(t, cat,
		"select c1.custkey, c2.custkey from customer c1, customer c2 where c1.custkey <> c2.custkey",
		optimizer.Options{})
	dn := segment.Decompose(pn, 2048)
	foundMat := false
	for _, s := range dn.Segments {
		if s.Kind == segment.KindMaterialize {
			foundMat = true
		}
	}
	if !foundMat {
		t.Fatalf("expected a materialize segment:\n%s", dn)
	}
}

func TestIOShare(t *testing.T) {
	cat := buildCatalog(t)

	// A single-segment scan: all bytes come from disk, output is final.
	p1 := planFor(t, cat, "select * from lineitem", optimizer.Options{})
	d1 := segment.Decompose(p1, 2048)
	s := d1.Segments[0]
	share := d1.IOShare(s, []segment.Est{s.Inputs[0].Init})
	if share != 1 {
		t.Fatalf("scan segment IO share = %g, want 1", share)
	}

	// In-memory hybrid join: the final segment reads the hash table from
	// memory and the probe relation from disk → share strictly between
	// 0 and 1.
	p2 := planFor(t, cat,
		"select c.custkey, o.orderkey from customer c, orders o where c.custkey = o.custkey",
		optimizer.Options{WorkMemPages: 4096})
	d2 := segment.Decompose(p2, 4096)
	final := d2.Segments[len(d2.Segments)-1]
	ests := make([]segment.Est, len(final.Inputs))
	for i, in := range final.Inputs {
		ests[i] = in.Init
	}
	share2 := d2.IOShare(final, ests)
	if share2 <= 0 || share2 >= 1 {
		t.Fatalf("hybrid final segment IO share = %g, want in (0,1)", share2)
	}

	// Grace join: the final join segment reads both partition sets from
	// disk → share 1.
	p3 := planFor(t, cat, `
		select c.custkey, o.orderkey, l.partkey
		from customer c, orders o, lineitem l
		where c.custkey = o.custkey and o.orderkey = l.orderkey`,
		optimizer.Options{WorkMemPages: 1})
	d3 := segment.Decompose(p3, 1)
	gfinal := d3.Segments[len(d3.Segments)-1]
	ests3 := make([]segment.Est, len(gfinal.Inputs))
	for i, in := range gfinal.Inputs {
		ests3[i] = in.Init
	}
	if share3 := d3.IOShare(gfinal, ests3); share3 != 1 {
		t.Fatalf("grace final segment IO share = %g, want 1\n%s", share3, d3)
	}

	// Degenerate input: zero estimates default to 1.
	zero := make([]segment.Est, len(gfinal.Inputs))
	if got := d3.IOShare(gfinal, zero); got != 1 {
		t.Fatalf("zero-byte IO share = %g", got)
	}
}
