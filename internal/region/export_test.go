package region

// ViewBuilt reports whether r's PointSet views (Nodes, Faults) have been
// built.
func ViewBuilt(r *Region) bool { return r.nodeSet != nil }
