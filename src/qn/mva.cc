#include "qn/mva.h"

#include <cmath>
#include <utility>

namespace carat::qn {

namespace {

void SetError(std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
}

}  // namespace

namespace internal {

// Reuses `sol`'s storage; allocation-free once warm.
void FinishSolution(const ClosedNetwork& net, const std::vector<double>& x,
                    const std::vector<double>& residence, Solution* sol) {
  const std::size_t num_chains = net.chains.size();
  const std::size_t num_centers = net.centers.size();
  sol->throughput.assign(x.begin(), x.end());
  sol->residence.resize(num_chains);
  sol->response_time.assign(num_chains, 0.0);
  for (std::size_t k = 0; k < num_chains; ++k) {
    const double* row = residence.data() + k * num_centers;
    sol->residence[k].assign(row, row + num_centers);
    double total = 0.0;
    for (std::size_t m = 0; m < num_centers; ++m) total += row[m];
    sol->response_time[k] = total;
  }
  sol->queue_length.assign(num_centers, 0.0);
  sol->utilization.assign(num_centers, 0.0);
  for (std::size_t m = 0; m < num_centers; ++m) {
    for (std::size_t k = 0; k < num_chains; ++k) {
      sol->queue_length[m] += x[k] * residence[k * num_centers + m];
      sol->utilization[m] += x[k] * net.chains[k].demands[m];
    }
  }
}

}  // namespace internal

namespace {

using internal::FillQueueingMask;
using internal::FinishSolution;

}  // namespace

bool JointLatticeStates(const ClosedNetwork& net, std::size_t limit,
                        std::size_t* states) {
  std::size_t count = 1;
  for (const Chain& chain : net.chains) {
    const std::size_t d = static_cast<std::size_t>(chain.population) + 1;
    if (d != 0 && count > limit / d) return false;
    count *= d;
  }
  if (states != nullptr) *states = count;
  return true;
}

namespace {

// Pointer bundle for the exact lattice walk. Row k of `rows` is chain k's
// think time followed by its demands in center order (stride 1 + centers);
// `q` holds one row of queueing-center queue lengths per lattice state.
struct ExactLatticeArgs {
  std::size_t num_chains = 0;
  std::size_t num_centers = 0;
  std::size_t num_queueing = 0;
  std::size_t num_states = 0;
  const std::size_t* dims = nullptr;
  const std::size_t* strides = nullptr;
  const double* rows = nullptr;
  const double* qmul = nullptr;
  double* q = nullptr;
  double* scratch = nullptr;
  std::size_t* n = nullptr;
};

// Walks the joint population lattice, filling q[state * Q + j] for the Q
// queueing centers. A delay center's residence is its demand (the general
// form d * (1 + 0 * q) is exactly d for finite q >= 0), so it never enters
// the lattice; it is only added into the chain's total residence, which is
// still summed sequentially in center order so every solution stays
// bit-identical to the all-centers recursion. kQ > 0 pins the queueing
// count at compile time (0: runtime count). kQueueingFirst selects the
// compact form, valid when centers [0, Q) are the queueing ones (every
// network the model builds); otherwise the row is walked in center order
// with the queueing mask picking each center's form.
template <std::size_t kQ, bool kQueueingFirst>
void ExactLatticeWalk(const ExactLatticeArgs& a) {
  const std::size_t nq = kQ != 0 ? kQ : a.num_queueing;
  const std::size_t num_chains = a.num_chains;
  const std::size_t num_centers = a.num_centers;
  const std::size_t row_stride = num_centers + 1;
  const std::size_t* __restrict dims = a.dims;
  const std::size_t* __restrict strides = a.strides;
  const double* __restrict rows = a.rows;
  const double* __restrict qmul = a.qmul;
  double* __restrict q = a.q;
  std::size_t* __restrict n = a.n;
  double local[kQ != 0 ? kQ : 1];
  double* __restrict r = kQ != 0 ? local : a.scratch;

  for (std::size_t j = 0; j < nq; ++j) q[j] = 0.0;  // the empty population
  for (std::size_t state = 1; state < a.num_states; ++state) {
    // Increment the mixed-radix counter; lexicographic order visits
    // n - e_k before n, so one pass suffices.
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (++n[k] < dims[k]) break;
      n[k] = 0;
    }
    double* __restrict qhere = q + state * nq;
    for (std::size_t j = 0; j < nq; ++j) qhere[j] = 0.0;
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (n[k] == 0) continue;
      const double* __restrict row = rows + k * row_stride;
      const double* __restrict demands = row + 1;
      const double* __restrict qprev = q + (state - strides[k]) * nq;
      double total = 0.0;
      if constexpr (kQueueingFirst) {
        for (std::size_t j = 0; j < nq; ++j) {
          r[j] = demands[j] * (1.0 + qprev[j]);
          total += r[j];
        }
        for (std::size_t m = nq; m < num_centers; ++m) total += demands[m];
      } else {
        for (std::size_t m = 0, j = 0; m < num_centers; ++m) {
          if (qmul[m] != 0.0) {
            r[j] = demands[m] * (1.0 + qprev[j]);
            total += r[j];
            ++j;
          } else {
            total += demands[m];
          }
        }
      }
      const double denom = row[0] + total;
      // Chains with zero total demand and zero think contribute nothing.
      const double xk = denom > 0.0 ? static_cast<double>(n[k]) / denom : 0.0;
      // Chain by chain, so each queue length accumulates in chain order.
      for (std::size_t j = 0; j < nq; ++j) qhere[j] += xk * r[j];
    }
  }
}

}  // namespace

bool ExactMvaInPlace(const ClosedNetwork& net, MvaWorkspace* ws,
                     std::size_t max_states, std::string* error) {
  if (!net.Validate(error)) return false;

  const std::size_t num_chains = net.chains.size();
  const std::size_t num_centers = net.centers.size();

  std::size_t num_states = 0;
  if (!JointLatticeStates(net, max_states, &num_states)) {
    SetError(error, "joint population lattice exceeds max_states");
    return false;
  }

  // Mixed-radix layout of the joint population lattice.
  ws->dims.resize(num_chains);
  ws->strides.resize(num_chains);
  {
    std::size_t stride = 1;
    for (std::size_t k = 0; k < num_chains; ++k) {
      ws->dims[k] = static_cast<std::size_t>(net.chains[k].population) + 1;
      ws->strides[k] = stride;
      stride *= ws->dims[k];
    }
  }
  FillQueueingMask(net, &ws->qmul);
  const double* qmul = ws->qmul.data();
  std::size_t num_queueing = 0;
  bool queueing_first = true;
  for (std::size_t m = 0; m < num_centers; ++m) {
    if (qmul[m] == 0.0) continue;
    queueing_first = queueing_first && m == num_queueing;
    ++num_queueing;
  }

  // Compact per-chain rows: think time, then demands in center order.
  const std::size_t row_stride = num_centers + 1;
  ws->row.resize(num_chains * row_stride);
  for (std::size_t k = 0; k < num_chains; ++k) {
    const Chain& chain = net.chains[k];
    double* row = ws->row.data() + k * row_stride;
    row[0] = chain.think_time;
    for (std::size_t m = 0; m < num_centers; ++m) row[1 + m] = chain.demands[m];
  }

  ws->q.resize(num_states * num_queueing);
  ws->resq.resize(num_queueing);
  ws->n.assign(num_chains, 0);
  if (num_queueing > 0) {
    ExactLatticeArgs a;
    a.num_chains = num_chains;
    a.num_centers = num_centers;
    a.num_queueing = num_queueing;
    a.num_states = num_states;
    a.dims = ws->dims.data();
    a.strides = ws->strides.data();
    a.rows = ws->row.data();
    a.qmul = qmul;
    a.q = ws->q.data();
    a.scratch = ws->resq.data();
    a.n = ws->n.data();
    // 2 and 3 are the counts the model's site networks have (CPU, DISK and
    // an optional LOG); every other count runs the runtime-count form.
    switch (num_queueing) {
      case 2:
        queueing_first ? ExactLatticeWalk<2, true>(a)
                       : ExactLatticeWalk<2, false>(a);
        break;
      case 3:
        queueing_first ? ExactLatticeWalk<3, true>(a)
                       : ExactLatticeWalk<3, false>(a);
        break;
      default:
        queueing_first ? ExactLatticeWalk<0, true>(a)
                       : ExactLatticeWalk<0, false>(a);
        break;
    }
  }

  // Throughputs and residence times at the full population, all centers in
  // center order (the trivial one-state lattice has none).
  ws->x.assign(num_chains, 0.0);
  ws->residence.assign(num_chains * num_centers, 0.0);
  if (num_states > 1) {
    const std::size_t full = num_states - 1;
    for (std::size_t k = 0; k < num_chains; ++k) {
      const Chain& chain = net.chains[k];
      if (chain.population == 0) continue;
      const double* row = ws->row.data() + k * row_stride;
      const std::size_t qprev = (full - ws->strides[k]) * num_queueing;
      double* res = ws->residence.data() + k * num_centers;
      double total = 0.0;
      for (std::size_t m = 0, j = 0; m < num_centers; ++m) {
        res[m] = qmul[m] != 0.0 ? row[1 + m] * (1.0 + ws->q[qprev + j++])
                                : row[1 + m];
        total += res[m];
      }
      const double denom = row[0] + total;
      ws->x[k] = denom > 0.0 ? chain.population / denom : 0.0;
    }
  }

  FinishSolution(net, ws->x, ws->residence, &ws->solution);
  ws->iterations = 0;
  return true;
}

bool SchweitzerMvaInPlace(const ClosedNetwork& net, MvaWorkspace* ws,
                          double tolerance, int max_iterations,
                          bool warm_start, std::string* error) {
  if (!net.Validate(error)) return false;

  const std::size_t num_chains = net.chains.size();
  const std::size_t num_centers = net.centers.size();
  const std::size_t km = num_chains * num_centers;

  FillQueueingMask(net, &ws->qmul);
  const double* qmul = ws->qmul.data();

  // Per-chain queue length at each center. A warm start resumes from the
  // retained `qkm` of the previous solve (the model's fixed point moves the
  // demands only slightly between iterations, so this converges in a few
  // rounds); otherwise each chain's population is spread evenly over the
  // queueing centers it visits.
  if (!(warm_start && ws->qkm.size() == km)) {
    ws->qkm.assign(km, 0.0);
    for (std::size_t k = 0; k < num_chains; ++k) {
      const Chain& chain = net.chains[k];
      std::size_t visited = 0;
      for (std::size_t m = 0; m < num_centers; ++m)
        if (chain.demands[m] > 0.0) ++visited;
      if (visited == 0) continue;
      for (std::size_t m = 0; m < num_centers; ++m)
        if (chain.demands[m] > 0.0)
          ws->qkm[k * num_centers + m] =
              static_cast<double>(chain.population) / visited;
    }
  }
  double* qkm = ws->qkm.data();

  ws->x.assign(num_chains, 0.0);
  ws->residence.assign(km, 0.0);
  ws->qsum.resize(num_centers);
  double* x = ws->x.data();
  double* residence = ws->residence.data();
  double* qsum = ws->qsum.data();

  ws->iterations = 0;
  for (int iter = 0; iter < max_iterations; ++iter) {
    ++ws->iterations;
    // Per-center totals, hoisting the O(chains) "queue seen on arrival" sum
    // out of the per-chain loop: chain k sees qsum[m] - qkm[k][m] / n_k.
#pragma omp simd
    for (std::size_t m = 0; m < num_centers; ++m) qsum[m] = 0.0;
    for (std::size_t k = 0; k < num_chains; ++k) {
      const double* qrow = qkm + k * num_centers;
#pragma omp simd
      for (std::size_t m = 0; m < num_centers; ++m) qsum[m] += qrow[m];
    }

    double max_delta = 0.0;
    for (std::size_t k = 0; k < num_chains; ++k) {
      const Chain& chain = net.chains[k];
      if (chain.population == 0) {
        x[k] = 0.0;
        continue;
      }
      const double nk = chain.population;
      const double inv_nk = 1.0 / nk;
      const double* demands = chain.demands.data();
      const double* qrow = qkm + k * num_centers;
      double* res = residence + k * num_centers;
      // Elementwise part vectorizes; the total is summed in a separate
      // sequential loop so the accumulation order is pinned (lowest center
      // first) and the batch kernel (mva_batch.cc) can replay it per lane.
#pragma omp simd
      for (std::size_t m = 0; m < num_centers; ++m) {
        // Schweitzer estimate of the queue seen on arrival by chain k.
        const double seen = qsum[m] - qrow[m] * inv_nk;
        res[m] = demands[m] * (1.0 + qmul[m] * seen);
      }
      double total = 0.0;
      for (std::size_t m = 0; m < num_centers; ++m) total += res[m];
      const double denom = chain.think_time + total;
      x[k] = denom > 0.0 ? nk / denom : 0.0;
    }
    for (std::size_t k = 0; k < num_chains; ++k) {
      const double xk = x[k];
      const double* res = residence + k * num_centers;
      double* qrow = qkm + k * num_centers;
#pragma omp simd reduction(max : max_delta)
      for (std::size_t m = 0; m < num_centers; ++m) {
        const double next = xk * res[m];
        max_delta = std::max(max_delta, std::fabs(next - qrow[m]));
        qrow[m] = next;
      }
    }
    if (max_delta < tolerance) break;
  }

  FinishSolution(net, ws->x, ws->residence, &ws->solution);
  return true;
}

bool SolveMvaInPlace(const ClosedNetwork& net, MvaWorkspace* ws,
                     std::size_t exact_state_limit, bool warm_start,
                     std::string* error) {
  if (JointLatticeStates(net, exact_state_limit))
    return ExactMvaInPlace(net, ws, exact_state_limit, error);
  return SchweitzerMvaInPlace(net, ws, /*tolerance=*/1e-9,
                              /*max_iterations=*/10000, warm_start, error);
}

MvaResult ExactMva(const ClosedNetwork& net, std::size_t max_states) {
  MvaResult result;
  MvaWorkspace ws;
  result.ok = ExactMvaInPlace(net, &ws, max_states, &result.error);
  if (result.ok) {
    result.solution = std::move(ws.solution);
    result.iterations = ws.iterations;
  }
  return result;
}

MvaResult SchweitzerMva(const ClosedNetwork& net, double tolerance,
                        int max_iterations,
                        const std::vector<double>* initial_qkm) {
  MvaResult result;
  MvaWorkspace ws;
  bool warm = false;
  if (initial_qkm != nullptr &&
      initial_qkm->size() == net.chains.size() * net.centers.size()) {
    ws.qkm = *initial_qkm;
    warm = true;
  }
  result.ok = SchweitzerMvaInPlace(net, &ws, tolerance, max_iterations, warm,
                                   &result.error);
  if (result.ok) {
    result.solution = std::move(ws.solution);
    result.iterations = ws.iterations;
  }
  return result;
}

MvaResult SolveMva(const ClosedNetwork& net, std::size_t exact_state_limit) {
  if (JointLatticeStates(net, exact_state_limit))
    return ExactMva(net, exact_state_limit);
  return SchweitzerMva(net);
}

}  // namespace carat::qn
