(** The straightforward baseline from the paper's RQ1: breadth-first
    enumeration of edits applied uniformly to the design, with no fault
    localization and no fitness guidance beyond the plausibility check. *)

type result = {
  repaired : Patch.t option;
  probes : int;
  lookups : int;  (** evaluations requested, memoized or not *)
  memo_hits : int;  (** evaluations absorbed by the memo cache *)
  compile_errors : int;  (** candidates that failed elaboration *)
  static_rejects : int;
      (** candidates screened out statically, without simulation *)
  oversize_rejects : int;
      (** candidates rejected for implausible size without simulation *)
  racy_rejects : int;
      (** candidates rejected by the static race screen without simulation *)
  semantic_hits : int;
      (** evaluations folded onto a semantically-equivalent, already-scored
          candidate without simulating *)
  dead_edit_skips : int;
      (** candidates whose edit was proved dead; seed fitness reused
          without simulating *)
  sims_event : int;
      (** simulations that ran on the event engine, including fallbacks
          from a requested compilation *)
  sims_compiled : int;
      (** simulations that ran on the compiled levelized backend *)
  compiled_fallbacks : int;
      (** simulations where compilation was requested but the design fell
          back to the event engine; a subset of [sims_event] *)
  sim_seconds_event : float;
      (** cumulative in-simulator wall time on the event engine (timing) *)
  sim_seconds_compiled : float;
      (** cumulative in-simulator wall time compiled (timing) *)
  wall_seconds : float;
  candidates_tried : int;
  sliced : bool;
      (** slice-based search engaged: the slicer found a strictly smaller
          exact slice *)
  slice_sims : int;
      (** candidate simulations that ran on the sliced design (equals
          [probes] when [sliced], 0 otherwise) *)
  stitched_verifies : int;
      (** slice-plausible candidates stitched back into the whole design
          and re-verified on the full oracle before being reported *)
}

(** Live search progress, as seen by the sequential commit loop; the
    values are independent of the parallelism degree. *)
type progress = {
  bp_depth : int;
  bp_tried : int;
  bp_best : float;
  bp_probes : int;
  bp_lookups : int;
  bp_memo_hits : int;
}

(** Every single edit over the module: deletes, same-class replacements,
    insertions, and template applications at each eligible node. *)
val single_edits : Verilog.Ast.module_decl -> Patch.edit list

(** Enumerate patches up to [max_depth] edits (default 2) under the
    configuration's probe and wall-clock budgets. The sweep is scored in
    chunks across [cfg.jobs] domains; enumeration order, the repair found,
    and all counters are independent of the parallelism degree.
    [on_progress] fires after every committed candidate. *)
val search :
  ?max_depth:int -> ?on_progress:(progress -> unit) -> Config.t -> Problem.t ->
  result
