#include "model/analytic_model.hpp"

#include <algorithm>
#include <cmath>

#include "model/residuals.hpp"
#include "util/assert.hpp"

namespace hls {

namespace {

double relative_change(double new_v, double old_v) {
  const double scale = std::max({std::fabs(new_v), std::fabs(old_v), 1e-12});
  return std::fabs(new_v - old_v) / scale;
}

// Ceiling for times produced past saturation: the contention fixed point
// diverges geometrically once a CPU pins at the clamp (an infinite queue in
// steady state), so we report "effectively infinite" as a readable constant
// instead of an astronomically large double.
constexpr double kTimeCeiling = 1e4;

double capped(double seconds) { return std::min(seconds, kTimeCeiling); }

}  // namespace

AnalyticModel::AnalyticModel() : opts_(Options{}) {}

ModelSolution AnalyticModel::solve(const ModelParams& p) const {
  ModelSolution s;

  const double n_l = p.n_calls;         // locks per transaction (N_l)
  const double part = p.partition();    // lock space per database
  const double conflict = p.conflict_factor();
  const double d = p.comm_delay;

  // Rates (per site / per central database).
  const double lam_loc = p.rate_local_a();
  const double lam_ship = p.rate_shipped_a();
  const double lam_b = p.rate_class_b();
  const double lam_cen_db = p.rate_central_per_db();
  const double lam_cen_tot = p.rate_central_total();

  // CPU times per burst.
  const double c_init_l = p.local_cpu(p.instr_msg_init);
  const double c_call_l = p.local_cpu(p.instr_per_call);
  const double c_commit_l =
      p.local_cpu(p.instr_msg_commit) + p.prob_any_write() * p.local_cpu(p.instr_send_async);
  const double c_init_c = p.central_cpu(p.instr_msg_init);
  const double c_call_c = p.central_cpu(p.instr_per_call);
  const double c_commit_c = p.central_cpu(p.instr_msg_commit);

  // Iterated state with neutral starting guesses.
  double rho_l = 0.3;
  double rho_c = 0.3;
  double err_l = 0.0;  // expected reruns per local txn
  double err_c = 0.0;  // expected reruns per central txn
  double beta_l = 1.0, gamma_l = 0.5, beta_c = 0.5;
  double t_exec_l = 1.0, t_exec_l_rr = 0.5, t_exec_c = 0.2;

  for (int iter = 0; iter < opts_.max_iterations; ++iter) {
    ++s.iterations;

    // ---- utilizations -------------------------------------------------
    // Local site work: class A runs (first + reruns), forwarding of shipped
    // class A and class B inputs, asynchronous-update send/ack handling,
    // authentication and commit-apply processing for central transactions
    // that touch this partition.
    const double auth_visits_per_site =
        (lam_ship + lam_b * p.expected_involved_sites() / p.num_sites) *
        (1.0 + err_c);
    const double local_txn_cpu =
        c_init_l + n_l * c_call_l + c_commit_l;
    double util_l =
        lam_loc * (1.0 + err_l) * local_txn_cpu +
        (lam_ship + lam_b) * p.local_cpu(p.instr_ship_forward) +
        lam_loc * p.prob_any_write() * p.local_cpu(p.instr_recv_ack) +
        auth_visits_per_site *
            (p.local_cpu(p.instr_auth_local) + p.local_cpu(p.instr_commit_apply_local));
    // Central work: all central runs plus applying every asynchronous update.
    const double central_txn_cpu = c_init_c + n_l * c_call_c + c_commit_c;
    // Async-update application: one message per updating local commit (fixed
    // cost) plus a per-updated-item component.
    const double apply_cpu_rate =
        lam_loc * p.num_sites *
        (p.prob_any_write() * p.central_cpu(p.instr_apply_update) +
         n_l * p.prob_write * p.central_cpu(p.instr_apply_update_item));
    double util_c =
        lam_cen_tot * (1.0 + err_c) * central_txn_cpu + apply_cpu_rate;

    bool saturated = false;
    if (util_l > opts_.rho_clamp) {
      util_l = opts_.rho_clamp;
      saturated = true;
    }
    if (util_c > opts_.rho_clamp) {
      util_c = opts_.rho_clamp;
      saturated = true;
    }
    const double new_rho_l = opts_.damping * util_l + (1 - opts_.damping) * rho_l;
    const double new_rho_c = opts_.damping * util_c + (1 - opts_.damping) * rho_c;

    const double f_l = 1.0 / (1.0 - new_rho_l);
    const double f_c = 1.0 / (1.0 - new_rho_c);

    // ---- lock-time densities and contention ---------------------------
    // Average locks held per database (Little's law, paper's lambda*N*beta/2
    // form), hence contention probability per request.
    const double held_local =
        lam_loc * n_l * beta_l / 2.0 + lam_loc * err_l * n_l * gamma_l / 2.0;
    const double held_central_db = lam_cen_db * (1.0 + err_c) * n_l * beta_c / 2.0;
    // Auth-phase holds at a local site: granted at auth, released by the
    // commit (or release) message one round trip later.
    const double auth_hold_time = 2.0 * d + p.local_cpu(p.instr_auth_local) * f_l;
    const double held_auth = auth_visits_per_site * n_l * auth_hold_time;
    // In-flight coherence windows per partition (update sent -> ack back).
    const double coherence_window =
        2.0 * d + p.central_cpu(p.instr_apply_update) * f_c;
    const double coherence_density =
        lam_loc * (1.0 + err_l) * n_l * p.prob_write * coherence_window / part;

    const double p_ll = std::min(1.0, held_local / part * conflict);
    const double p_l_auth = std::min(1.0, held_auth / part * conflict);
    const double p_cc = std::min(1.0, held_central_db / part * conflict);

    // ---- response times ------------------------------------------------
    // Local class A. Per-call time: CPU (queueing-expanded), I/O, lock waits
    // on other local transactions (residual ~ beta/2) and on auth-held locks
    // (residual ~ half the auth hold window).
    const double wait_l = p_ll * beta_l / 2.0 + p_l_auth * auth_hold_time / 2.0;
    const double call_l = c_call_l * f_l + p.prob_call_io * p.call_io + wait_l;
    const double call_l_rr = c_call_l * f_l + wait_l;  // rerun: no I/O
    const double commit_l = c_commit_l * f_l;
    const double new_t_exec_l = n_l * call_l;
    const double new_t_exec_l_rr = n_l * call_l_rr;
    const double r_l_first = c_init_l * f_l + p.setup_io + new_t_exec_l + commit_l;
    const double r_l_rerun = c_init_l * f_l + new_t_exec_l_rr + commit_l;
    // Lock k is held for the remaining (n_l - k) calls plus commit; averaging
    // over k gives (n_l + 1)/2 calls, the paper's beta/2 growth shape.
    const double new_beta_l = (n_l + 1.0) / 2.0 * call_l + commit_l;
    const double new_gamma_l = (n_l + 1.0) / 2.0 * call_l_rr + commit_l;

    // Central transactions. They additionally hold their locks through the
    // authentication round trip.
    const double wait_c = p_cc * beta_c / 2.0;
    const double call_c = c_call_c * f_c + p.prob_call_io * p.call_io + wait_c;
    const double call_c_rr = c_call_c * f_c + wait_c;
    const double commit_c = c_commit_c * f_c;
    const double auth_phase = 2.0 * d + p.local_cpu(p.instr_auth_local) * f_l;
    const double new_t_exec_c = n_l * call_c;
    const double r_c_core_first =
        c_init_c * f_c + p.setup_io + new_t_exec_c + commit_c + auth_phase;
    const double r_c_core_rerun =
        c_init_c * f_c + n_l * call_c_rr + commit_c + auth_phase;
    const double new_beta_c = (n_l + 1.0) / 2.0 * call_c + commit_c + auth_phase;

    // ---- cross-tier collisions -> aborts -------------------------------
    // The paper distinguishes first-run and rerun populations (§3.1's
    // P_cen_cen' / P_cen_loc' terms): reruns hold locks for gamma (no I/O)
    // rather than beta, and their residual execution is shorter. Split both
    // the holder populations and the requester streams accordingly.
    const double held_loc_first = lam_loc * n_l * beta_l / 2.0;
    const double held_loc_rerun = lam_loc * err_l * n_l * gamma_l / 2.0;
    const double exec_l_first = t_exec_l + commit_l;
    const double exec_l_rerun = t_exec_l_rr + commit_l;
    // Central residuals use the first-run execution only: a central rerun
    // re-enters the queue as a fresh request, so its holder population is
    // already counted in rate_cen_req_db's (1 + err_c) factor.
    const double exec_c_first = t_exec_c + commit_c;
    const auto [split_first, split_rerun] =
        abort_splits<2>({exec_l_first, exec_l_rerun}, exec_c_first, d);

    // Case 1: a central request lands on a locally held entity. The local
    // holder's remaining time is triangular (collision probability grows
    // with locks held); the central requester's remaining time is uniform
    // over its execution, plus the authentication travel delay.
    const double rate_cen_req_db = lam_cen_db * (1.0 + err_c) * n_l;
    const double coll_cen_on_first =
        rate_cen_req_db * std::min(1.0, held_loc_first / part * conflict);
    const double coll_cen_on_rerun =
        rate_cen_req_db * std::min(1.0, held_loc_rerun / part * conflict);
    const double p_first_outlives_1 = split_first.local_holder_outlives;
    const double p_rerun_outlives_1 = split_rerun.local_holder_outlives;

    // Case 2: a local request lands on a centrally held entity; the local
    // requester's residual is uniform over its own run kind.
    const double cen_density = std::min(1.0, held_central_db / part * conflict);
    const double coll_first_on_cen = lam_loc * n_l * cen_density;
    const double coll_rerun_on_cen = lam_loc * err_l * n_l * cen_density;
    const double p_first_outlives_2 = split_first.local_requester_outlives;
    const double p_rerun_outlives_2 = split_rerun.local_requester_outlives;

    // Local abort rates per run kind, distributed over the runs at risk.
    const double abort_rate_l_first = coll_cen_on_first * p_first_outlives_1 +
                                      coll_first_on_cen * p_first_outlives_2;
    const double abort_rate_l_rerun = coll_cen_on_rerun * p_rerun_outlives_1 +
                                      coll_rerun_on_cen * p_rerun_outlives_2;
    const double p_a_l =
        std::min(0.95, abort_rate_l_first / std::max(lam_loc, 1e-12));
    const double p_a_l_rr = std::min(
        0.95, err_l > 1e-9 ? abort_rate_l_rerun / std::max(lam_loc * err_l, 1e-12)
                           : p_a_l);

    // Central aborts: the complement of every collision above, plus
    // negative acknowledgements (any of the n_l authenticated entities has
    // an in-flight asynchronous update).
    const double central_abort_rate_db =
        coll_cen_on_first * (1.0 - p_first_outlives_1) +
        coll_cen_on_rerun * (1.0 - p_rerun_outlives_1) +
        coll_first_on_cen * (1.0 - p_first_outlives_2) +
        coll_rerun_on_cen * (1.0 - p_rerun_outlives_2);
    const double runs_cen = std::max(lam_cen_db * (1.0 + err_c), 1e-12);
    const double p_neg =
        1.0 - std::pow(1.0 - std::min(1.0, coherence_density * conflict), n_l);
    const double p_a_c = std::min(0.95, central_abort_rate_db / runs_cen + p_neg);

    // Rerun expansion: E = P_first / (1 - P_rerun) (a first abort followed
    // by a geometric number of rerun aborts).
    const double new_err_l =
        std::min(20.0, p_a_l / std::max(1e-6, 1.0 - p_a_l_rr));
    const double new_err_c = std::min(20.0, p_a_c / (1.0 - p_a_c));

    // ---- damped update and convergence test ----------------------------
    const double deltas = std::max(
        {relative_change(new_rho_l, rho_l), relative_change(new_rho_c, rho_c),
         relative_change(new_err_l, err_l), relative_change(new_err_c, err_c),
         relative_change(new_beta_l, beta_l), relative_change(new_beta_c, beta_c)});

    rho_l = new_rho_l;
    rho_c = new_rho_c;
    err_l = opts_.damping * new_err_l + (1 - opts_.damping) * err_l;
    err_c = opts_.damping * new_err_c + (1 - opts_.damping) * err_c;
    beta_l = capped(opts_.damping * new_beta_l + (1 - opts_.damping) * beta_l);
    gamma_l = capped(opts_.damping * new_gamma_l + (1 - opts_.damping) * gamma_l);
    beta_c = capped(opts_.damping * new_beta_c + (1 - opts_.damping) * beta_c);
    t_exec_l = new_t_exec_l;
    t_exec_l_rr = new_t_exec_l_rr;
    t_exec_c = new_t_exec_c;

    // ---- publish the solution (kept fresh every iteration) -------------
    s.saturated = saturated;
    s.rho_local = rho_l;
    s.rho_central = rho_c;
    s.beta_local = beta_l;
    s.gamma_local = gamma_l;
    s.beta_central = beta_c;
    s.p_contention_local = p_ll;
    s.p_wait_auth = p_l_auth;
    s.p_contention_central = p_cc;
    s.p_abort_local = p_a_l;
    s.p_abort_local_rerun = p_a_l_rr;
    s.p_abort_central = p_a_c;
    s.p_auth_refused = p_neg;
    s.exp_reruns_local = err_l;
    s.exp_reruns_central = err_c;

    s.r_local_first = capped(r_l_first);
    s.r_local_rerun = capped(r_l_rerun);
    s.r_local = capped(r_l_first + err_l * r_l_rerun);
    // Shipped class A: forwarding at home, one delay in, core execution,
    // one delay out for the response.
    const double ship_overhead = p.local_cpu(p.instr_ship_forward) * f_l + 2.0 * d;
    s.r_shipped_first = capped(ship_overhead + r_c_core_first);
    s.r_central_rerun = capped(r_c_core_rerun);
    s.r_shipped = capped(ship_overhead + r_c_core_first + err_c * r_c_core_rerun);
    // Class B response modeled identically (§3.1 assumes equal behaviour).
    s.r_class_b = s.r_shipped;

    const double w_loc = p.p_loc * (1.0 - p.p_ship);
    const double w_ship = p.p_loc * p.p_ship;
    const double w_b = 1.0 - p.p_loc;
    s.r_avg =
        capped(w_loc * s.r_local + w_ship * s.r_shipped + w_b * s.r_class_b);

    if (deltas < opts_.tolerance && iter > 4) {
      s.converged = true;
      break;
    }
  }
  return s;
}

}  // namespace hls
