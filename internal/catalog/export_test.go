package catalog

// IndexBytes returns the bytes of t's page indexes' record spans and
// field entries.
func (t *Table) IndexBytes() int {
	t.pagesMu.Lock()
	defer t.pagesMu.Unlock()
	n := 0
	for _, ix := range t.pages {
		if ix != nil {
			n += 2 * (cap(ix.spans) + cap(ix.fields))
		}
	}
	return n
}
