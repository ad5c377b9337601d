package experiments

// PaperTriplets returns the exact 35 qubit triples from the x-axis of the
// paper's Figures 6 and 7, in the published (decreasing-distance) order.
// Their distance labels double as a cross-check of the Johannesburg
// coupling graph: TripletDistance must reproduce every published label
// (verified in tests).
func PaperTriplets() [][3]int {
	return [][3]int{
		{6, 17, 3},   // 10
		{16, 1, 8},   // 10
		{7, 18, 3},   // 9
		{17, 4, 11},  // 9
		{19, 2, 6},   // 9
		{1, 19, 8},   // 8
		{3, 15, 14},  // 8
		{7, 3, 19},   // 8
		{15, 0, 9},   // 8
		{19, 1, 7},   // 8
		{1, 2, 18},   // 7
		{6, 13, 2},   // 7
		{14, 5, 15},  // 7
		{16, 1, 18},  // 7
		{19, 10, 6},  // 7
		{0, 12, 15},  // 6
		{5, 3, 9},    // 6
		{9, 3, 5},    // 6
		{13, 10, 1},  // 6
		{19, 15, 13}, // 6
		{0, 6, 11},   // 5
		{8, 6, 19},   // 5
		{11, 15, 8},  // 5
		{14, 13, 16}, // 5
		{18, 7, 8},   // 5
		{2, 5, 3},    // 4
		{5, 1, 3},    // 4
		{8, 10, 6},   // 4
		{11, 7, 9},   // 4
		{17, 10, 5},  // 4
		{1, 3, 4},    // 3
		{9, 12, 14},  // 3
		{10, 11, 0},  // 3
		{3, 1, 2},    // 2
		{17, 16, 18}, // 2
	}
}
