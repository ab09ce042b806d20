// Package translatefix reproduces the map-literal range that made the
// SQL translation of cycle-shaped queries nondeterministic: its
// fixture-relative dir internal/translate renders query bytes, so it
// is an emission package, and binding a conjunct's two endpoints by
// ranging over a two-entry map literal is a finding — the WHERE
// operands came out in either order, and a self-loop's duplicate key
// lost one of them. Binding source then target in fixed order is the
// clean variant.
package translatefix

// bindByMapLiteral appends join conditions in map-iteration order.
func bindByMapLiteral(src, dst int, alias string, bound map[int]string) []string {
	var where []string
	for v, col := range map[int]string{src: alias + ".src", dst: alias + ".trg"} { // want `determinism: map iteration order is randomized but this loop feeds ordered output`
		if prev, ok := bound[v]; ok {
			where = append(where, prev+" = "+col)
		} else {
			bound[v] = col
		}
	}
	return where
}

// bindInOrder binds the source endpoint, then the target.
func bindInOrder(src, dst int, alias string, bound map[int]string) []string {
	var where []string
	for i, v := range [2]int{src, dst} {
		col := alias + [2]string{".src", ".trg"}[i]
		if prev, ok := bound[v]; ok {
			where = append(where, prev+" = "+col)
		} else {
			bound[v] = col
		}
	}
	return where
}
