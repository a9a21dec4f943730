package head

import (
	"timeunion/internal/index"
	"timeunion/internal/labels"
)

// This file implements catalog definition: installing a series, group or
// member under a known ID. The Define* methods install a caller-assigned
// ID without WAL logging or ID allocation. Two callers share them — WAL
// replay (recover.go), which re-installs the definitions the log recorded,
// and a read replica's catalog refresh (core), which installs the
// definitions the writer published to shared storage. All three are
// idempotent: an already-known ID is a no-op, so refresh can re-apply a
// whole catalog. The append path's creators (getOrCreateSeries,
// getOrCreateGroup, getOrCreateMemberLocked) allocate an ID, log it, and
// install it through the same install*Locked code, so a definition whose
// log fails installs nothing.

// DefineSeries installs a series definition under an explicit ID. The ID
// allocator advances past it so a later local allocation cannot collide.
func (h *Head) DefineSeries(id uint64, ls labels.Labels) error {
	h.cat.mu.Lock()
	defer h.cat.mu.Unlock()
	if _, ok := h.lookupSeries(id); ok {
		return nil
	}
	_, err := h.installSeriesLocked(id, ls)
	return err
}

// installSeriesLocked indexes a series and publishes it in its stripe and
// the catalog. The caller holds h.cat.mu.
func (h *Head) installSeriesLocked(id uint64, ls labels.Labels) (*MemSeries, error) {
	s := &MemSeries{ID: id, Labels: h.strs.Intern(ls)}
	if err := h.idx.Add(id, s.Labels); err != nil {
		return nil, err
	}
	st := h.stripeFor(id)
	st.mu.Lock()
	st.series[id] = s
	st.mu.Unlock()
	h.cat.byKey[s.Labels.Key()] = id
	if id > h.cat.nextSeries {
		h.cat.nextSeries = id
	}
	return s, nil
}

// DefineGroup installs a group definition under an explicit group ID
// (which carries index.GroupIDFlag).
func (h *Head) DefineGroup(gid uint64, groupTags labels.Labels) error {
	h.cat.mu.Lock()
	defer h.cat.mu.Unlock()
	if _, ok := h.lookupGroup(gid); ok {
		return nil
	}
	_, err := h.installGroupLocked(gid, groupTags)
	return err
}

// installGroupLocked indexes a group and publishes it in its stripe and
// the catalog. The caller holds h.cat.mu.
func (h *Head) installGroupLocked(gid uint64, groupTags labels.Labels) (*MemGroup, error) {
	g := &MemGroup{
		GID:         gid,
		GroupTags:   h.strs.Intern(groupTags),
		memberByKey: make(map[string]int),
	}
	// The group ID is the postings ID for all of the group's tags (§3.1).
	if err := h.idx.Add(gid, g.GroupTags); err != nil {
		return nil, err
	}
	st := h.stripeFor(gid)
	st.mu.Lock()
	st.groups[gid] = g
	st.mu.Unlock()
	h.cat.groupByKey[g.GroupTags.Key()] = gid
	if n := gid &^ index.GroupIDFlag; n > h.cat.nextGroup {
		h.cat.nextGroup = n
	}
	return g, nil
}

// DefineGroupMember installs one member slot of an existing group. It
// reports ok=false when the group is unknown (the caller decides whether
// that is an orphan record to drop or an ordering bug).
func (h *Head) DefineGroupMember(gid uint64, slot uint32, unique labels.Labels) (bool, error) {
	g, ok := h.lookupGroup(gid)
	if !ok {
		return false, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for int(slot) > len(g.members) {
		// Defensive: slots arrive in order, but tolerate gaps.
		g.members = append(g.members, groupMember{})
	}
	if int(slot) == len(g.members) {
		_, err := h.installMemberLocked(g, unique)
		return true, err
	}
	return true, nil // already known
}

// installMemberLocked appends a member at the next slot and indexes its
// unique tags. The caller holds g.mu.
func (h *Head) installMemberLocked(g *MemGroup, unique labels.Labels) (int, error) {
	slot := len(g.members)
	unique = h.strs.Intern(unique)
	g.members = append(g.members, groupMember{unique: unique})
	g.memberByKey[unique.Key()] = slot
	// Unique tags also point at the group ID in the second-level index.
	return slot, h.idx.Add(g.GID, unique)
}

// CatalogDef is one exported catalog record, in definition-dependency
// order when produced by CatalogSnapshot (groups before their members).
type CatalogDef struct {
	// Kind is "series", "group", or "member".
	Kind string
	// ID is the series ID or group ID.
	ID uint64
	// Slot is the member slot (member records only).
	Slot uint32
	// Labels are the series tags, group shared tags, or member unique
	// tags, by Kind.
	Labels labels.Labels
}

// CatalogSnapshot exports every series/group/member definition, ordered so
// that replaying the records with the Define* methods reconstructs the
// catalog: series and groups first (any order), then members in slot
// order. The snapshot holds the catalog lock, so it is consistent with
// respect to concurrent creations.
func (h *Head) CatalogSnapshot() []CatalogDef {
	h.cat.mu.Lock()
	defer h.cat.mu.Unlock()
	var out []CatalogDef
	var members []CatalogDef
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.RLock()
		for id, s := range st.series {
			out = append(out, CatalogDef{Kind: "series", ID: id, Labels: s.Labels})
		}
		for gid, g := range st.groups {
			g.mu.Lock()
			out = append(out, CatalogDef{Kind: "group", ID: gid, Labels: g.GroupTags})
			for slot, m := range g.members {
				members = append(members, CatalogDef{Kind: "member", ID: gid, Slot: uint32(slot), Labels: m.unique})
			}
			g.mu.Unlock()
		}
		st.mu.RUnlock()
	}
	return append(out, members...)
}
