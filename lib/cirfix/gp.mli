(** The main CirFix repair loop (paper Algorithm 1): genetic programming
    over repair patches with tournament selection, elitism, repair
    templates, mutation and crossover, per-parent re-localization, and
    delta-debugging minimization of the first plausible repair found. *)

type candidate = { patch : Patch.t; outcome : Evaluate.outcome }

type generation_stats = {
  gen : int;
  best_fitness : float;
  mean_fitness : float;
  probes_so_far : int;
  lookups_so_far : int;  (** evaluations requested so far, memoized or not *)
  memo_hits_so_far : int;  (** lookups absorbed by the memo cache so far *)
}

type result = {
  repaired : candidate option;  (** first plausible repair, un-minimized *)
  minimized : Patch.t option;  (** one-minimal repair patch *)
  repaired_module : Verilog.Ast.module_decl option;
  generations : generation_stats list;  (** oldest first *)
  probes : int;  (** fitness evaluations (simulations actually run) *)
  lookups : int;  (** evaluations requested, memoized or not *)
  memo_hits : int;  (** evaluations absorbed by the memo cache *)
  compile_errors : int;  (** mutants that failed elaboration *)
  static_rejects : int;
      (** mutants rejected by the pre-simulation static screener; these
          never touch the simulation budget *)
  oversize_rejects : int;
      (** mutants rejected for implausible size without simulation *)
  racy_rejects : int;
      (** mutants rejected by the static race screen ([cfg.screen_races])
          without simulation *)
  runtime_races : int;
      (** dynamic races observed across all candidate simulations
          ([cfg.check_races]) *)
  semantic_hits : int;
      (** evaluations folded onto a semantically-equivalent, already-scored
          candidate ({!Verilog.Canon}) without simulating *)
  dead_edit_skips : int;
      (** candidates whose edit was proved dead ({!Verilog.Dataflow}); the
          seed's fitness was reused without simulating *)
  lane_seconds : float;
      (** wall time spent inside the static pruning lanes (canonical and
          prune hashing plus table probes) — the analysis-overhead figure
          reported by the [dataflow-prune] bench artifact; not journaled *)
  sims_event : int;
      (** simulations that ran on the event engine, including fallbacks
          from a requested compilation *)
  sims_compiled : int;
      (** simulations that ran on the compiled levelized backend *)
  compiled_fallbacks : int;
      (** simulations where compilation was requested but the design fell
          back to the event engine; a subset of [sims_event] *)
  sim_seconds_event : float;
      (** cumulative in-simulator wall time on the event engine (timing:
          varies run to run, never journaled) *)
  sim_seconds_compiled : float;
      (** cumulative in-simulator wall time on the compiled backend
          (timing: varies run to run, never journaled) *)
  mutants_generated : int;
  wall_seconds : float;
  initial_fitness : float;  (** fitness of the unpatched faulty design *)
  sliced : bool;
      (** slice-based repair engaged: the slicer found a strictly smaller
          exact slice; when false, the run searched the whole design *)
  slice_sims : int;
      (** candidate simulations that ran on the sliced design (equals
          [probes] when [sliced], 0 otherwise) *)
  stitched_verifies : int;
      (** slice-plausible candidates stitched back into the whole design
          and re-verified on the full oracle — the slicing acceptance
          gate; includes the winners and any slice-only false positives
          it rejected *)
}

(** Run one seeded repair trial. Terminates at a plausible repair (fitness
    1.0), or when generations, probes, or wall-clock budget are exhausted.
    [on_generation] observes progress. Candidate batches are evaluated
    across [cfg.jobs] domains; for a fixed seed the result (patch, probes,
    generation stats) is the same for every [jobs] value, provided the
    wall-clock budget does not bind. *)
val repair :
  ?on_generation:(generation_stats -> unit) -> Config.t -> Problem.t -> result
