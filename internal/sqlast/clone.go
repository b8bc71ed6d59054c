package sqlast

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	if q == nil {
		return nil
	}
	return &Query{Select: q.Select.Clone(), Op: q.Op, Right: q.Right.Clone()}
}

// Clone returns a deep copy of the SELECT block.
func (s *Select) Clone() *Select {
	if s == nil {
		return nil
	}
	out := &Select{
		Distinct: s.Distinct,
		Where:    CloneExpr(s.Where),
		Having:   CloneExpr(s.Having),
		Limit:    s.Limit,
	}
	for _, it := range s.Items {
		out.Items = append(out.Items, SelectItem{Expr: CloneExpr(it.Expr)})
	}
	out.From = From{}
	for _, t := range s.From.Tables {
		out.From.Tables = append(out.From.Tables, TableRef{Name: t.Name, Alias: t.Alias, Sub: t.Sub.Clone()})
	}
	for _, j := range s.From.Joins {
		out.From.Joins = append(out.From.Joins, JoinCond{Left: j.Left, Right: j.Right})
	}
	for _, g := range s.GroupBy {
		c := *g
		out.GroupBy = append(out.GroupBy, &c)
	}
	for _, o := range s.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderItem{Expr: CloneExpr(o.Expr), Desc: o.Desc})
	}
	return out
}

// ClonePredicates returns a copy of q, at every nesting level, whose
// WHERE and HAVING expressions — where the literals live — are deep
// copies, and whose select lists, joins, grouping and ordering are
// shared with q. Replacing literals in the copy never touches q; the
// shared parts must be treated as read-only.
func ClonePredicates(q *Query) *Query {
	if q == nil {
		return nil
	}
	s := *q.Select
	s.Where = CloneExpr(s.Where)
	s.Having = CloneExpr(s.Having)
	// Derived tables hold predicates of their own.
	for _, t := range s.From.Tables {
		if t.Sub != nil {
			tables := make([]TableRef, len(s.From.Tables))
			for i, t := range s.From.Tables {
				tables[i] = TableRef{Name: t.Name, Alias: t.Alias, Sub: ClonePredicates(t.Sub)}
			}
			s.From.Tables = tables
			break
		}
	}
	return &Query{Select: &s, Op: q.Op, Right: ClonePredicates(q.Right)}
}

// CloneExpr returns a deep copy of an expression tree.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ColumnRef:
		c := *x
		return &c
	case *Agg:
		a := &Agg{Func: x.Func, Distinct: x.Distinct}
		if x.Arg != nil {
			arg := *x.Arg
			a.Arg = &arg
		}
		return a
	case *Lit:
		l := *x
		return &l
	case *Binary:
		return &Binary{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *Not:
		return &Not{X: CloneExpr(x.X)}
	case *Between:
		return &Between{X: CloneExpr(x.X), Lo: CloneExpr(x.Lo), Hi: CloneExpr(x.Hi), Negate: x.Negate}
	case *In:
		return &In{X: CloneExpr(x.X), Sub: x.Sub.Clone(), Negate: x.Negate}
	case *Exists:
		return &Exists{Sub: x.Sub.Clone(), Negate: x.Negate}
	case *Subquery:
		return &Subquery{Q: x.Q.Clone()}
	default:
		return nil
	}
}
