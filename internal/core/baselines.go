package core

// Reference values the paper compares against. These are not inputs to
// any measurement; they appear in report notes so a reader can see the
// same contrasts the paper draws (§5.1, §6.1).
const (
	// TorMetricsDailyUsers is the Tor Metrics Portal estimate of daily
	// users at the time of the study (April 2018).
	TorMetricsDailyUsers = 2.15e6
	// TorMetricsV2Onions is the Metrics estimate of unique v2 onion
	// services during the Table 6 measurement window.
	TorMetricsV2Onions = 79e3
)
