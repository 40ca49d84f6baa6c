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
