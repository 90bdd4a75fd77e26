#include "tests/queueing.h"

#include <algorithm>
#include <cmath>

namespace wlm {
namespace {
constexpr double kUnstable = 1e18;
}

double ErlangC(int c, double a) {
  if (c <= 0) return 1.0;
  if (a <= 0.0) return 0.0;
  if (a >= c) return 1.0;
  // Iterative Erlang-B then convert to Erlang-C (numerically stable).
  double b = 1.0;
  for (int k = 1; k <= c; ++k) {
    b = a * b / (k + a * b);
  }
  double rho = a / c;
  return b / (1.0 - rho + rho * b);
}

double MmcMeanWait(double lambda, double mu, int c) {
  if (lambda <= 0.0) return 0.0;
  if (mu <= 0.0 || lambda >= c * mu) return kUnstable;
  double a = lambda / mu;
  double pw = ErlangC(c, a);
  return pw / (c * mu - lambda);
}

double MmcMeanResponse(double lambda, double mu, int c) {
  if (mu <= 0.0) return kUnstable;
  double wait = MmcMeanWait(lambda, mu, c);
  if (wait >= kUnstable) return kUnstable;
  return wait + 1.0 / mu;
}

double Mm1MeanResponse(double lambda, double mu) {
  return MmcMeanResponse(lambda, mu, 1);
}

double Mm1PsMeanResponse(double lambda, double mu) {
  // M/M/1-PS has the same mean response as M/M/1-FCFS.
  return Mm1MeanResponse(lambda, mu);
}

double ClosedMvaThroughput(int n, double service, double think, int servers) {
  if (n <= 0 || service <= 0.0) return 0.0;
  // Single-station exact MVA with a multi-server station approximated by
  // dividing service demand by min(queue population, servers) is awkward;
  // use the standard load-independent MVA with demand = service/servers as
  // the optimistic rate, which is exact for servers == 1.
  double demand = service / std::max(1, servers);
  double q = 0.0;  // mean queue length at the station
  double x = 0.0;  // system throughput
  for (int k = 1; k <= n; ++k) {
    double r = demand * (1.0 + q);
    x = k / (r + think);
    q = x * r;
  }
  return x;
}

}  // namespace wlm
