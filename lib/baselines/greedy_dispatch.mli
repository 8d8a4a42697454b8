(** Non-rejecting greedy baselines for total flow-time.

    Both dispatch each arriving job to the machine minimizing its estimated
    completion time (remaining work + pending work + [p_ij]); they differ in
    the local service order.  These are the "practical heuristics" the
    paper's introduction contrasts with: no rejections, hence no worst-case
    guarantee. *)

open Sched_sim

type state
(** Per-run dispatch scratch (the argmin's cost cells), created by the
    policy's [init]. *)

val fifo : state Driver.policy
(** First-in-first-out service order. *)

val spt : state Driver.policy
(** Shortest-processing-time service order (the paper's service order
    without the rejection rules). *)
