// Package engine assembles the storage, index, topology and SQL layers
// into complete spatial database engines. Three built-in profiles
// reproduce the semantic and architectural axes of the systems the
// Jackpine paper evaluated:
//
//   - GaiaDB     — PostGIS-like: exact DE-9IM predicates, R-tree index,
//     full spatial function set;
//   - MySpatial  — MySQL-5.x-like: topological predicates evaluated on
//     minimum bounding rectangles only, R-tree index, reduced function
//     set;
//   - CommerceDB — "DB X"-like commercial profile: exact predicates, a
//     fixed-grid tessellation index, near-complete function set.
package engine

import "jackpine/internal/sql"

// IndexType selects the spatial index implementation a profile uses.
type IndexType int

// The available spatial index families.
const (
	IndexRTree IndexType = iota
	IndexGrid
)

// String names the index type.
func (t IndexType) String() string {
	if t == IndexGrid {
		return "grid"
	}
	return "rtree"
}

// Profile configures an engine's semantics and architecture.
type Profile struct {
	// Name identifies the profile in benchmark output.
	Name string
	// Description is a one-line summary for reports.
	Description string
	// MBRPredicates evaluates topological predicates on MBRs only.
	MBRPredicates bool
	// SpatialIndex selects the spatial index family.
	SpatialIndex IndexType
	// DisabledFunctions lists SQL functions this profile lacks.
	DisabledFunctions []string
	// GridDim is the grid resolution per axis for IndexGrid profiles.
	GridDim int
}

// GaiaDB returns the PostGIS-like profile.
func GaiaDB() Profile {
	return Profile{
		Name:         "gaiadb",
		Description:  "open-source engine with exact DE-9IM topology and an R-tree index",
		SpatialIndex: IndexRTree,
	}
}

// MySpatial returns the MySQL-5.x-like profile: fast approximate
// MBR-only predicates and a reduced function surface.
func MySpatial() Profile {
	return Profile{
		Name:          "myspatial",
		Description:   "open-source engine whose topological predicates use MBRs only",
		MBRPredicates: true,
		SpatialIndex:  IndexRTree,
		DisabledFunctions: []string{
			"ST_RELATE", "ST_COVERS", "ST_COVEREDBY", "ST_DWITHIN",
			"ST_CONVEXHULL", "ST_SYMDIFFERENCE", "ST_POINTONSURFACE",
		},
	}
}

// CommerceDB returns the anonymized commercial profile: exact topology
// over a fixed-grid tessellation index.
func CommerceDB() Profile {
	return Profile{
		Name:         "commercedb",
		Description:  "commercial engine with exact topology and a fixed-grid index",
		SpatialIndex: IndexGrid,
		GridDim:      64,
		DisabledFunctions: []string{
			"ST_COVERS", "ST_COVEREDBY", "ST_SYMDIFFERENCE",
		},
	}
}

// AllProfiles returns the three built-in profiles in canonical order.
func AllProfiles() []Profile {
	return []Profile{GaiaDB(), MySpatial(), CommerceDB()}
}

// registryOptions derives the SQL function registry configuration.
func (p Profile) registryOptions() sql.RegistryOptions {
	return sql.RegistryOptions{
		MBRPredicates: p.MBRPredicates,
		Disabled:      p.DisabledFunctions,
	}
}
