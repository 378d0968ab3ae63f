package flat

import (
	"fmt"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// Rehydrate reconstructs a FLAT index from its recorded page layout: pages
// lists, per page, the item IDs laid out on it, exactly as a prior Build
// placed them. The expensive phase of Build — the STR pack that decides the
// layout — is skipped; everything else (page MBRs, coordinate sidecar,
// neighborhood graph, seed tree) is re-derived from the layout with the same
// code paths Build uses, so the result is indistinguishable from the
// original index. Item IDs must be dense in [0, len(items)) and each must
// appear on exactly one page.
func Rehydrate(items []rtree.Item, pages [][]int32, opts Options) (*Index, error) {
	o := opts.sanitize()
	boxes, err := denseBoxes(items)
	if err != nil {
		return nil, err
	}

	builder, err := pager.NewBuilder(o.PageSize)
	if err != nil {
		return nil, err
	}
	idx := &Index{opts: o, pageBox: make([]geom.AABB, 0, len(pages))}
	placed := make([]bool, len(items))
	total := 0
	for p, page := range pages {
		if len(page) == 0 || len(page) > o.PageSize {
			return nil, fmt.Errorf("flat: recorded page %d holds %d items, want 1..%d", p, len(page), o.PageSize)
		}
		box := geom.EmptyAABB()
		for _, id := range page {
			if id < 0 || int(id) >= len(items) || placed[id] {
				return nil, fmt.Errorf("flat: recorded page %d places invalid or duplicate item %d", p, id)
			}
			placed[id] = true
			builder.Add(id)
			box = box.Union(boxes[id])
		}
		builder.FlushPage()
		idx.pageBox = append(idx.pageBox, box)
		total += len(page)
	}
	if total != len(items) {
		return nil, fmt.Errorf("flat: recorded layout places %d of %d items", total, len(items))
	}
	if err := idx.finish(builder, boxes); err != nil {
		return nil, err
	}
	return idx, nil
}
