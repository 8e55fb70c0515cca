(* Dataflow-based fault localization for HDL (paper Sec. 3.1, Algorithm 2):
   a context-insensitive fixed-point analysis over assignments to wires and
   registers. Starting from the output-mismatch set, it implicates

     (Impl-Data)  assignment statements whose left-hand side names a
                  mismatched identifier, and
     (Impl-Ctrl)  conditional statements any of whose identifiers (in the
                  whole subtree, per the paper's 4-bit-counter walkthrough)
                  is mismatched,

   adds the implicated node and all of its children to the localization
   set, and feeds newly-seen identifiers back into the mismatch set
   (Add-Child) until a fixed point. The result is a uniformly-ranked set of
   node ids, reflecting the parallel structure of HDL designs.

   For explainability the analysis also records the fixed-point round in
   which each node was first implicated. Round 1 nodes touch the mismatched
   outputs directly; later rounds are reached only through the transitive
   closure. [suspiciousness] turns that distance into a weight in (0, 1] —
   the search itself still treats the set as uniformly ranked, exactly as
   the paper does; the weights only feed the localization journal record
   and the source heatmap. *)

open Verilog.Ast
module IdSet = Set.Make (Int)
module IdMap = Map.Make (Int)
module NameSet = Set.Make (String)

type result = {
  fl : IdSet.t; (* implicated node ids (statements and expressions) *)
  mismatch : NameSet.t; (* final transitive mismatch set *)
  iterations : int; (* fixed-point rounds, for diagnostics *)
  rounds : int IdMap.t; (* node id -> round in which it was implicated *)
}

(* Identifiers appearing anywhere in a statement subtree, including names
   written by assignments (lvalue bases are not expressions, so the generic
   expression fold alone would miss them). *)
let stmt_idents (s : stmt) : NameSet.t =
  Verilog.Ast_utils.fold_stmt
    (fun acc (sub : stmt) ->
      match sub.s with
      | Blocking (lhs, _, _) | Nonblocking (lhs, _, _) ->
          NameSet.union acc (NameSet.of_list (Verilog.Ast_utils.lvalue_base lhs))
      | _ -> acc)
    (fun acc (e : expr) ->
      match e.e with
      | Ident n | Index (n, _) | RangeSel (n, _, _) -> NameSet.add n acc
      | _ -> acc)
    NameSet.empty s

let expr_idents_set e =
  NameSet.of_list (Verilog.Ast_utils.expr_idents e)

let is_conditional (s : stmt) =
  match s.s with
  | If _ | CaseStmt _ | While _ | For _ -> true
  | _ -> false

let lvalue_names lv = NameSet.of_list (Verilog.Ast_utils.lvalue_base lv)

(* A node that can be implicated: it fires once its [trigger] names meet
   the mismatch set, then contributes its subtree [ids] and the [names] it
   mentions. Built once per [localize] call, so the fixed point only
   re-tests triggers; a node that already fired is skipped (the mismatch
   set only grows, so it would re-add nothing). *)
type implicable = {
  trigger : NameSet.t;
  ids : int list Lazy.t;
  names : NameSet.t Lazy.t;
  mutable fired : bool;
}

let localize (m : module_decl) ~(mismatch : string list) : result =
  (* Procedural statements first, in source order, then continuous
     assignments: an assignment fires on its written names (Impl-Data), a
     conditional on any identifier of its subtree (Impl-Ctrl). Other
     statements never fire. *)
  let procedural =
    Verilog.Ast_utils.stmts_of_module m
    |> List.filter_map (fun (s : stmt) ->
           let node trigger names =
             Some
               {
                 trigger;
                 ids = lazy (Verilog.Ast_utils.stmt_subtree_ids s);
                 names;
                 fired = false;
               }
           in
           match s.s with
           | Blocking (lhs, _, _) | Nonblocking (lhs, _, _) ->
               node (lvalue_names lhs) (lazy (stmt_idents s))
           | _ when is_conditional s ->
               let idents = stmt_idents s in
               node idents (Lazy.from_val idents)
           | _ -> None)
  in
  let continuous =
    List.concat_map
      (fun (item : item) ->
        match item.it with
        | ContAssign assigns ->
            List.map
              (fun (lhs, rhs) ->
                {
                  trigger = lvalue_names lhs;
                  ids =
                    lazy (item.iid :: Verilog.Ast_utils.expr_subtree_ids rhs);
                  names = lazy (expr_idents_set rhs);
                  fired = false;
                })
              assigns
        | _ -> [])
      m.items
  in
  let nodes = procedural @ continuous in
  let rounds_tbl : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let current = ref (NameSet.of_list mismatch) in
  let rounds = ref 0 in
  let changed = ref true in
  while !changed do
    incr rounds;
    changed := false;
    List.iter
      (fun n ->
        if (not n.fired) && not (NameSet.disjoint n.trigger !current) then (
          n.fired <- true;
          List.iter
            (fun id ->
              if not (Hashtbl.mem rounds_tbl id) then (
                Hashtbl.add rounds_tbl id !rounds;
                changed := true))
            (Lazy.force n.ids);
          NameSet.iter
            (fun name ->
              if not (NameSet.mem name !current) then (
                current := NameSet.add name !current;
                changed := true))
            (Lazy.force n.names)))
      nodes
  done;
  let rounds_map =
    Hashtbl.fold (fun id r acc -> IdMap.add id r acc) rounds_tbl IdMap.empty
  in
  {
    fl = IdMap.fold (fun id _ acc -> IdSet.add id acc) rounds_map IdSet.empty;
    mismatch = !current;
    iterations = !rounds;
    rounds = rounds_map;
  }

(* Suspiciousness of a node: 1/round for implicated nodes (round 1 writes a
   mismatched output directly), 0 for nodes outside the localization set. *)
let suspiciousness (r : result) (id : int) : float =
  match IdMap.find_opt id r.rounds with
  | None -> 0.
  | Some round -> 1. /. float_of_int round

(* Statement ids within the localization set — the mutation targets. *)
let fl_statements (m : module_decl) (r : result) : stmt list =
  Verilog.Ast_utils.stmts_of_module m
  |> List.filter (fun (s : stmt) -> IdSet.mem s.sid r.fl)

(* When fault localization is disabled (ablation), every statement is a
   target. *)
let all_statements (m : module_decl) : stmt list =
  Verilog.Ast_utils.stmts_of_module m

(* --- Source heatmap ------------------------------------------------------

   [heat_lines] annotates the pretty-printed module with a per-line
   suspiciousness weight. The AST carries no source positions, so the
   mapping goes through the printer itself: each implicated statement (and
   continuous-assignment item) is pretty-printed on its own, and module
   lines whose trimmed text matches a trimmed line of an implicated node's
   rendering inherit that node's weight (max over matches). Structural
   noise lines ("begin", "end") are never marked. Two textually identical
   statements therefore share the higher of their weights — acceptable for
   a heatmap, and deterministic. *)

let heat_markable (t : string) : bool =
  t <> "" && t <> "begin" && t <> "end"

let heat_lines (m : module_decl) (r : result) : (string * float) list =
  let weights : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let mark w text =
    String.split_on_char '\n' text
    |> List.iter (fun line ->
           let t = String.trim line in
           if heat_markable t then
             let prev =
               Option.value (Hashtbl.find_opt weights t) ~default:0.
             in
             if w > prev then Hashtbl.replace weights t w)
  in
  List.iter
    (fun (s : stmt) ->
      let w = suspiciousness r s.sid in
      if w > 0. then mark w (Verilog.Pp.stmt_to_string s))
    (Verilog.Ast_utils.stmts_of_module m);
  List.iter
    (fun (item : item) ->
      match item.it with
      | ContAssign _ ->
          let w = suspiciousness r item.iid in
          if w > 0. then
            mark w (Format.asprintf "%a" Verilog.Pp.pp_item item)
      | _ -> ())
    m.items;
  String.split_on_char '\n' (Verilog.Pp.module_to_string m)
  |> List.map (fun line ->
         let t = String.trim line in
         (line, Option.value (Hashtbl.find_opt weights t) ~default:0.))
