package exec

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"progressdb/internal/catalog"
	"progressdb/internal/optimizer"
	"progressdb/internal/plan"
	"progressdb/internal/segment"
	"progressdb/internal/sqlparser"
	"progressdb/internal/storage"
	"progressdb/internal/tuple"
	"progressdb/internal/vclock"
)

// rawTable loads rows into a new table t of cols, appending each past
// catalog.Insert, which would refuse a column that mixes kinds.
func rawTable(tb testing.TB, cols []tuple.Column, rows []tuple.Tuple) (*catalog.Catalog, *vclock.Clock) {
	tb.Helper()
	clock := vclock.New(vclock.Costs{SeqPage: 1e-5, RandPage: 8e-5, CPUTuple: 1e-8}, nil)
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(clock), 256))
	tab, err := cat.CreateTable("t", tuple.NewSchema(cols...))
	if err != nil {
		tb.Fatal(err)
	}
	for _, row := range rows {
		if _, err := tab.Heap.Append(row.Encode(nil)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tab.Heap.Sync(); err != nil {
		tb.Fatal(err)
	}
	return cat, clock
}

// runRows plans sql at workMem pages and returns its rows, copied.
func runRows(tb testing.TB, cat *catalog.Catalog, clock *vclock.Clock, sql string, workMem int) ([]tuple.Tuple, error) {
	tb.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := optimizer.Plan(cat, stmt, optimizer.Options{WorkMemPages: workMem})
	if err != nil {
		tb.Fatal(err)
	}
	env := &Env{Pool: cat.Pool(), Clock: clock, WorkMemPages: workMem, Decomp: segment.Decompose(p, workMem)}
	var rows []tuple.Tuple
	_, err = Run(env, p, func(tp tuple.Tuple) error {
		rows = append(rows, tp.Clone())
		return nil
	})
	return rows, err
}

// refCompare orders two rows by the keys in turn, by Value.Compare.
func refCompare(keys []plan.SortKey, a, b tuple.Tuple) (int, error) {
	for _, k := range keys {
		c, err := a[k.Col].Compare(b[k.Col])
		if err != nil {
			return 0, err
		}
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c, nil
		}
	}
	return 0, nil
}

// refSort is the external sort's order by refCompare alone: runs cut
// where their encoded bytes reach work_mem, each sorted by
// slices.SortStableFunc, then merged fan-in at a time (the merge of the
// first runs going to the back of the list) with the earlier run winning
// ties. In memory that is a stable sort; once an intermediate merge moves
// a later run ahead of an earlier one, rows equal on every key come out
// in that queue's order, not the input's — the order stays what it was,
// since regrouping the merges would move the virtual ledger.
func refSort(keys []plan.SortKey, rows []tuple.Tuple, workMem int) ([]tuple.Tuple, error) {
	var sortErr error
	less := func(a, b tuple.Tuple) int {
		c, err := refCompare(keys, a, b)
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return c
	}
	var runs [][]tuple.Tuple
	var run []tuple.Tuple
	bytes := 0.0
	for _, r := range rows {
		run = append(run, r)
		if bytes += float64(r.EncodedSize()); bytes >= float64(workMem)*storage.PageSize {
			slices.SortStableFunc(run, less)
			runs, run, bytes = append(runs, run), nil, 0
		}
	}
	slices.SortStableFunc(run, less)
	if len(runs) == 0 {
		return run, sortErr
	}
	if len(run) > 0 {
		runs = append(runs, run)
	}
	merge := func(runs [][]tuple.Tuple) []tuple.Tuple {
		var out []tuple.Tuple
		for {
			best := -1
			for i, r := range runs {
				if len(r) > 0 && (best < 0 || less(r[0], runs[best][0]) < 0) {
					best = i
				}
			}
			if best < 0 {
				return out
			}
			out = append(out, runs[best][0])
			runs[best] = runs[best][1:]
		}
	}
	fanin := max(workMem-1, 2)
	for len(runs) > fanin {
		runs = append(runs[fanin:], merge(runs[:fanin]))
	}
	return merge(runs), sortErr
}

// sortCols is the oracle's table: one column per key kind, then a
// unique id.
var sortCols = []tuple.Column{
	{Name: "f", Type: tuple.Float}, {Name: "i", Type: tuple.Int},
	{Name: "s", Type: tuple.String}, {Name: "m", Type: tuple.Float},
	{Name: "id", Type: tuple.Int},
}

// checkSortOrder runs "order by" over rows of sortCols at 512 work_mem
// pages (in memory) and at 2 (spilled) and requires refSort's rows, in
// its order, or its error.
func checkSortOrder(t *testing.T, name string, rows []tuple.Tuple, order string) {
	t.Helper()
	cat, clock := rawTable(t, sortCols, rows)
	var keys []plan.SortKey
	for _, k := range strings.Split(order, ",") {
		f := strings.Fields(k)
		col := slices.IndexFunc(sortCols, func(c tuple.Column) bool { return c.Name == f[0] })
		keys = append(keys, plan.SortKey{Col: col, Desc: len(f) > 1})
	}
	for _, workMem := range []int{512, 2} {
		got, err := runRows(t, cat, clock, "select * from t order by "+order, workMem)
		want, wantErr := refSort(keys, rows, workMem)
		if wantErr != nil {
			if err == nil || !strings.Contains(err.Error(), wantErr.Error()) {
				t.Fatalf("%s, order by %s, work_mem %d: error %v, want %v", name, order, workMem, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s, order by %s, work_mem %d: %v", name, order, workMem, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s, order by %s, work_mem %d: %d rows, want %d", name, order, workMem, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) { // the whole row: spilled values read back too
				t.Fatalf("%s, order by %s, work_mem %d: row %d is %v, want %v", name, order, workMem, i, got[i], want[i])
			}
		}
	}
}

var (
	sortFloats = []tuple.Value{
		tuple.NewFloat(math.NaN()), {Kind: tuple.Float, I: -1}, // a NaN with its sign bit set
		tuple.NewFloat(0), tuple.NewFloat(math.Copysign(0, -1)),
		tuple.NewFloat(math.Inf(1)), tuple.NewFloat(math.Inf(-1)),
		tuple.NewFloat(5e-324), tuple.NewFloat(-5e-324), tuple.NewFloat(math.SmallestNonzeroFloat64 * 3),
		tuple.NewFloat(math.MaxFloat64), tuple.NewFloat(-math.MaxFloat64),
		tuple.NewFloat(1), tuple.NewFloat(-1), tuple.NewFloat(0.5), tuple.NewFloat(1 << 53),
	}
	sortInts = []tuple.Value{
		tuple.NewInt(math.MinInt64), tuple.NewInt(math.MinInt64 + 1), tuple.NewInt(math.MaxInt64),
		tuple.NewInt(math.MaxInt64 - 1), tuple.NewInt(-1), tuple.NewInt(0), tuple.NewInt(1),
		tuple.NewInt(1<<53 - 1), tuple.NewInt(1 << 53), tuple.NewInt(1<<53 + 1), tuple.NewInt(-1<<53 - 1),
	}
	sortStrings = []tuple.Value{
		tuple.NewString(""), tuple.NewString("a"), tuple.NewString("ab"),
		tuple.NewString("b"), tuple.NewString("\xff"),
	}
	// Int and Float kinds in one column, each of magnitude at most 2^53:
	// there Compare converts exactly and is a total order. Beyond it, an
	// Int pair compares exactly where an Int and a Float do not, so no
	// order of such a column is defined to check against.
	sortMixed = []tuple.Value{
		tuple.NewInt(1), tuple.NewFloat(1), tuple.NewInt(0), tuple.NewFloat(math.Copysign(0, -1)),
		tuple.NewFloat(0.5), tuple.NewInt(-3), tuple.NewFloat(math.NaN()), tuple.NewInt(1 << 53),
		tuple.NewFloat(1 << 53), tuple.NewFloat(math.Inf(-1)),
	}
)

// sortRows draws n rows of sortCols with column j from pools[j].
func sortRows(rng *rand.Rand, n int, pools [4][]tuple.Value) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	for r := range rows {
		row := make(tuple.Tuple, 5)
		for j, p := range pools {
			row[j] = p[rng.Intn(len(p))]
		}
		row[4] = tuple.NewInt(int64(r))
		rows[r] = row
	}
	return rows
}

// The sort orders rows as a stable sort by Value.Compare does — and, once
// spilled, as the merge of those runs did — whatever the first key holds:
// Floats with NaNs of either sign, ±0, ±Inf and subnormals, the Int
// extremes and the Ints about 2^53, few distinct keys (ties to the id),
// a String (compared from the first key), an Int/Float mix (likewise),
// one to three keys in either direction. A column mixing String and Int
// still fails with Compare's error.
func TestSortOrderMatchesStableSort(t *testing.T) {
	few := func(vs ...tuple.Value) []tuple.Value { return vs }
	all := [4][]tuple.Value{sortFloats, sortInts, sortStrings, sortMixed}
	fewKeys := [4][]tuple.Value{
		few(tuple.NewFloat(math.NaN()), tuple.NewFloat(0), tuple.NewFloat(math.Copysign(0, -1))),
		few(tuple.NewInt(1), tuple.NewInt(2)), few(tuple.NewString("a"), tuple.NewString("")),
		few(tuple.NewInt(1), tuple.NewFloat(1), tuple.NewFloat(0.5)),
	}
	rng := rand.New(rand.NewSource(39))
	for _, tc := range []struct {
		name  string
		pools [4][]tuple.Value
		order string
	}{
		{"floats", all, "f"},
		{"floats desc", all, "f desc"},
		{"ints", all, "i"},
		{"ints desc, then floats", all, "i desc, f"},
		{"floats, ints desc, strings", all, "f, i desc, s"},
		{"strings", all, "s"},
		{"strings desc, then floats desc", all, "s desc, f desc"},
		{"mixed", all, "m"},
		{"mixed desc, then ints", all, "m desc, i"},
		{"few floats", fewKeys, "f"},
		{"few floats desc, few ints", fewKeys, "f desc, i"},
		{"few ints, few mixed desc, few strings", fewKeys, "i, m desc, s"},
		{"few mixed, few floats desc", fewKeys, "m, f desc"},
		{"few strings desc, few ints desc, few floats", fewKeys, "s desc, i desc, f"},
	} {
		// 1200 rows spill into about five runs at work_mem 2, so the
		// spilled order passes an intermediate merge; 100 fit in one.
		for _, n := range []int{1, 100, 1200} {
			checkSortOrder(t, tc.name, sortRows(rng, n, tc.pools), tc.order)
		}
	}
	// A String and an Int in one key column do not compare.
	for _, order := range []string{"s", "i, s"} {
		rows := sortRows(rng, 300, fewKeys)
		rows[150][2] = tuple.NewInt(7)
		checkSortOrder(t, "string and int", rows, order)
	}
}

// FuzzSortOrder holds the sort to refSort over rows drawn from the
// oracle's pools: data[0] picks one to three keys and their directions,
// data[1] the row count (a multiple of eight, enough to spill), and the
// rest, read in turn and round again, each row's four values.
func FuzzSortOrder(f *testing.F) {
	f.Add([]byte{0x00, 4, 0, 1, 2, 3})
	f.Add([]byte{0x6d, 40, 1, 2, 3, 5, 8, 13, 21, 34, 55})
	f.Add([]byte{0x59, 200, 0, 0, 0, 0, 1, 1, 1, 1, 2, 3})
	f.Add([]byte{0xfe, 255, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 17})
	pools := [4][]tuple.Value{sortFloats, sortInts, sortStrings, sortMixed}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		var order []string
		for i, spec := 0, data[0]; i < 1+int(spec>>6)%3; i, spec = i+1, spec>>3 {
			key := sortCols[spec&3].Name
			if spec&4 != 0 {
				key += " desc"
			}
			order = append(order, key)
		}
		vals := data[2:]
		rows := make([]tuple.Tuple, 8*int(data[1]))
		for r := range rows {
			row := make(tuple.Tuple, 5)
			for j, p := range pools {
				row[j] = p[int(vals[(4*r+j)%len(vals)])%len(p)]
			}
			row[4] = tuple.NewInt(int64(r))
			rows[r] = row
		}
		checkSortOrder(t, "fuzz", rows, strings.Join(order, ", "))
	})
}
