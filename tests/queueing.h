#ifndef WLM_TESTS_QUEUEING_H_
#define WLM_TESTS_QUEUEING_H_

namespace wlm {

/// Analytic queueing approximations [35][40] (the "analytical model" in
/// Niu et al.'s scheduler [60] and the queueing-network models the paper's
/// scheduling section cites). The tests use them as an oracle for the
/// simulated engine; nothing in the library calls them.

/// Erlang-C: probability an arrival waits in an M/M/c queue with offered
/// load a = lambda/mu (requires a < c for stability).
double ErlangC(int c, double a);

/// Mean response time (wait + service) of M/M/c. Returns a very large
/// number when unstable (lambda >= c * mu).
double MmcMeanResponse(double lambda, double mu, int c);

/// Mean queueing delay (excluding service) of M/M/c.
double MmcMeanWait(double lambda, double mu, int c);

/// Mean response time of M/M/1 (c = 1 shortcut).
double Mm1MeanResponse(double lambda, double mu);

/// Mean response time of an M/M/1 processor-sharing server — a standard
/// model of a DBMS executing `mpl` queries concurrently: identical to
/// M/M/1 FCFS in mean, provided here for intent-revealing call sites.
double Mm1PsMeanResponse(double lambda, double mu);

/// Closed interactive system throughput bound (Mean Value Analysis for a
/// single queueing station + think time): computes the throughput of `n`
/// closed-loop clients with mean service demand `service` and think time
/// `think` at a station with `servers` servers. Exact MVA for a single
/// load-independent station (approximating multi-server by rate scaling).
double ClosedMvaThroughput(int n, double service, double think, int servers);

}  // namespace wlm

#endif  // WLM_TESTS_QUEUEING_H_
