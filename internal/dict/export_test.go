package dict

// FootprintParts returns the parts Bytes sums: the value index, the term
// table, the arena with its directory, and the shape table.
func FootprintParts(d *Dict) (index, table, arena, shapes int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f := d.footprintLocked()
	return f.index, f.table, f.arena, f.shapes
}
