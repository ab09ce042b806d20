package engines

import (
	"gmark/internal/eval"
	"gmark/internal/query"
)

// joinRelations joins materialized conjunct relations into the output
// tuple set, ordering joins by ascending input size among connected
// conjuncts (a simple cost-based optimizer shared by the bottom-up
// engines P and D).
func joinRelations(r *compiledRule, rels [][]pair, m *eval.Meter, out *tupleSet) error {
	used := make([]bool, len(rels))
	type table struct {
		schema []query.Var
		rows   [][]int32
	}
	var cur *table
	for range rels {
		best := -1
		bestConnected := false
		for i := range rels {
			if used[i] {
				continue
			}
			connected := cur != nil && (varIndex(cur.schema, r.body[i].src) >= 0 || varIndex(cur.schema, r.body[i].dst) >= 0)
			if best < 0 ||
				(connected && !bestConnected) ||
				(connected == bestConnected && len(rels[i]) < len(rels[best])) {
				best = i
				bestConnected = connected
			}
		}
		used[best] = true
		cj := &r.body[best]
		if cur == nil {
			t := &table{}
			if cj.src == cj.dst {
				t.schema = []query.Var{cj.src}
				for _, p := range rels[best] {
					if p.src == p.dst {
						t.rows = append(t.rows, []int32{p.src})
					}
				}
			} else {
				t.schema = []query.Var{cj.src, cj.dst}
				for _, p := range rels[best] {
					t.rows = append(t.rows, []int32{p.src, p.dst})
				}
			}
			if err := m.ChargeTick(int64(len(t.rows))); err != nil {
				return err
			}
			cur = t
			continue
		}
		j, err := hashJoinTables(cur.schema, cur.rows, cj, rels[best], m)
		if err != nil {
			return err
		}
		cur = &table{schema: j.schema, rows: j.rows}
	}

	idx := make([]int, len(r.head))
	for i, v := range r.head {
		idx[i] = varIndex(cur.schema, v)
	}
	tuple := make([]int32, len(r.head))
	for _, row := range cur.rows {
		for i, j := range idx {
			tuple[i] = row[j]
		}
		out.add(tuple)
	}
	return nil
}

type joinedTable struct {
	schema []query.Var
	rows   [][]int32
}

// hashJoinTables joins the current tuple table with one conjunct
// relation via a hash table on the shared variable(s).
func hashJoinTables(schema []query.Var, rows [][]int32, cj *compiledConjunct, rel []pair, m *eval.Meter) (joinedTable, error) {
	si := varIndex(schema, cj.src)
	di := varIndex(schema, cj.dst)
	outSchema := append([]query.Var(nil), schema...)
	if si < 0 {
		outSchema = append(outSchema, cj.src)
	}
	if di < 0 && cj.src != cj.dst {
		outSchema = append(outSchema, cj.dst)
	}
	var out [][]int32
	emit := func(row []int32, extra ...int32) error {
		nr := make([]int32, 0, len(row)+len(extra))
		nr = append(nr, row...)
		nr = append(nr, extra...)
		out = append(out, nr)
		return m.ChargeTick(1)
	}

	switch {
	case si >= 0 && di >= 0:
		set := make(map[uint64]struct{}, len(rel))
		for _, p := range rel {
			set[pairKey(p.src, p.dst)] = struct{}{}
		}
		for _, row := range rows {
			if err := m.Tick(); err != nil {
				return joinedTable{}, err
			}
			if _, ok := set[pairKey(row[si], row[di])]; ok {
				if err := emit(row); err != nil {
					return joinedTable{}, err
				}
			}
		}
	case si >= 0:
		h := make(map[int32][]int32, len(rel))
		for _, p := range rel {
			h[p.src] = append(h[p.src], p.dst)
		}
		same := cj.src == cj.dst
		for _, row := range rows {
			if err := m.Tick(); err != nil {
				return joinedTable{}, err
			}
			for _, d := range h[row[si]] {
				if same {
					if d == row[si] {
						if err := emit(row); err != nil {
							return joinedTable{}, err
						}
					}
					continue
				}
				if err := emit(row, d); err != nil {
					return joinedTable{}, err
				}
			}
		}
	case di >= 0:
		h := make(map[int32][]int32, len(rel))
		for _, p := range rel {
			h[p.dst] = append(h[p.dst], p.src)
		}
		for _, row := range rows {
			if err := m.Tick(); err != nil {
				return joinedTable{}, err
			}
			for _, s := range h[row[di]] {
				if err := emit(row, s); err != nil {
					return joinedTable{}, err
				}
			}
		}
	default:
		for _, row := range rows {
			if err := m.Tick(); err != nil {
				return joinedTable{}, err
			}
			for _, p := range rel {
				if cj.src == cj.dst {
					if p.src == p.dst {
						if err := emit(row, p.src); err != nil {
							return joinedTable{}, err
						}
					}
					continue
				}
				if err := emit(row, p.src, p.dst); err != nil {
					return joinedTable{}, err
				}
			}
		}
	}
	return joinedTable{schema: outSchema, rows: out}, nil
}

func varIndex(schema []query.Var, v query.Var) int {
	for i, s := range schema {
		if s == v {
			return i
		}
	}
	return -1
}
