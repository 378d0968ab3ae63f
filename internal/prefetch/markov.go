package prefetch

import (
	"sort"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
)

// Markov is the history-learning prefetcher class §3 of the paper discusses
// and dismisses: "Other approaches learn from past user behavior to predict
// future positions [8]. For massive models like in our scenario, however,
// learning from past user behavior does not significantly improve prediction
// accuracy because the probability that several users follow the same paths
// is small."
//
// The implementation is a first-order Markov chain over page transitions, in
// the spirit of the neighbor-selection Markov chain of Lee et al. (ADVIS'02):
// Train it with the page sequences of past sessions; at query time it
// prefetches the pages most often seen to follow the current query's pages.
// The E4 supplement reproduces the paper's verdict: trained on *other* users'
// walkthroughs it barely predicts anything (paths don't repeat), while
// trained on the *same* path it is nearly perfect — useful only for replays.
type Markov struct {
	// transitions[p][q] counts how often page q was demanded in the query
	// after one that demanded page p.
	transitions map[pager.PageID]map[pager.PageID]int
	// prev holds the previous query's pages within the current session.
	prev []pager.PageID
}

// NewMarkov returns an untrained Markov prefetcher.
func NewMarkov() *Markov {
	return &Markov{transitions: make(map[pager.PageID]map[pager.PageID]int)}
}

// Name implements Prefetcher.
func (m *Markov) Name() string { return "markov" }

// Reset implements Prefetcher. It clears the session state but keeps the
// trained transition table: training is across sessions by design.
func (m *Markov) Reset() { m.prev = nil }

// Train records one past session: a sequence of page sets, one per query.
func (m *Markov) Train(sessions ...[][]pager.PageID) {
	for _, session := range sessions {
		for i := 1; i < len(session); i++ {
			for _, p := range session[i-1] {
				row := m.transitions[p]
				if row == nil {
					row = make(map[pager.PageID]int)
					m.transitions[p] = row
				}
				for _, q := range session[i] {
					row[q]++
				}
			}
		}
	}
}

// TrainFromWalkthrough replays a query-box sequence against an index and
// trains on the page sets it touches.
func (m *Markov) TrainFromWalkthrough(ctx *Context, boxes []geom.AABB) {
	session := make([][]pager.PageID, len(boxes))
	for i, q := range boxes {
		session[i] = PagesInRange(ctx.Index, q)
	}
	m.Train(session)
}

// Predict implements Prefetcher: rank pages by the transition counts out of
// the current query's pages, excluding pages the current query already
// demanded.
func (m *Markov) Predict(ctx *Context, q geom.AABB, _ []int32, budget int) []pager.PageID {
	cur := PagesInRange(ctx.Index, q)
	m.prev = cur
	if budget <= 0 {
		return nil
	}
	inCur := make(map[pager.PageID]bool, len(cur))
	for _, p := range cur {
		inCur[p] = true
	}
	votes := make(map[pager.PageID]int)
	for _, p := range cur {
		for q, n := range m.transitions[p] {
			if !inCur[q] {
				votes[q] += n
			}
		}
	}
	if len(votes) == 0 {
		return nil
	}
	type scored struct {
		page pager.PageID
		n    int
	}
	ranked := make([]scored, 0, len(votes))
	for p, n := range votes {
		ranked = append(ranked, scored{p, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].page < ranked[j].page
	})
	if len(ranked) > budget {
		ranked = ranked[:budget]
	}
	out := make([]pager.PageID, len(ranked))
	for i, s := range ranked {
		out[i] = s.page
	}
	return out
}
