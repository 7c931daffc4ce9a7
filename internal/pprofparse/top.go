package pprofparse

import "sort"

// Aggregation over decoded profiles: per-function flat/cumulative
// totals and the top-N tables the capture manifests are built from.
// Flat charges a sample's value to its leaf frame (the function that
// allocated / was on-CPU); cumulative charges every distinct function
// on the stack once.

// Entry is one function's aggregate for one value dimension.
type Entry struct {
	Func string `json:"func"`
	Flat int64  `json:"flat"`
	Cum  int64  `json:"cum"`
}

// Top aggregates the given value dimension per function and returns
// the entries sorted by descending flat value (ties by name, so output
// order is deterministic). n > 0 truncates to the top n.
func (p *Profile) Top(typeIndex, n int) []Entry {
	if p == nil || typeIndex < 0 {
		return nil
	}
	agg := map[string]*Entry{}
	get := func(fn string) *Entry {
		e, ok := agg[fn]
		if !ok {
			e = &Entry{Func: fn}
			agg[fn] = e
		}
		return e
	}
	for _, s := range p.Samples {
		if typeIndex >= len(s.Values) {
			continue
		}
		v := s.Values[typeIndex]
		if v == 0 {
			continue
		}
		if len(s.Stack) == 0 {
			get("<unknown>").Flat += v
			get("<unknown>").Cum += v
			continue
		}
		get(s.Stack[0].Func).Flat += v
		seen := map[string]bool{}
		for _, fr := range s.Stack {
			if seen[fr.Func] {
				continue // recursive frames count once per sample
			}
			seen[fr.Func] = true
			get(fr.Func).Cum += v
		}
	}
	out := make([]Entry, 0, len(agg))
	for _, e := range agg {
		out = append(out, *e)
	}
	sortEntries(out)
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TopByName is Top keyed by sample-type name ("alloc_space", "cpu");
// it returns nil when the profile lacks that dimension.
func (p *Profile) TopByName(typeName string, n int) []Entry {
	if p == nil {
		return nil
	}
	return p.Top(p.TypeIndex(typeName), n)
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Flat != es[j].Flat {
			return es[i].Flat > es[j].Flat
		}
		if es[i].Cum != es[j].Cum {
			return es[i].Cum > es[j].Cum
		}
		return es[i].Func < es[j].Func
	})
}
