package core

// EmptyLinkRefuses reports whether the empty-link refusal turns req away
// on led's topology and risk factor, before any DP record is computed.
func EmptyLinkRefuses(led *Ledger, req Homogeneous) bool {
	t := new(homogTable)
	t.reset(led, nil, req, MinMaxOccupancy, true)
	return t.refused
}
