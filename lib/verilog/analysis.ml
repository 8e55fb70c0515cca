(* Semantic static analysis: a module-level def-use/driver graph with four
   analyses on top — combinational-loop detection, x-propagation seeding,
   width/truncation checking, and constant-condition detection. The repair
   engine runs a configurable subset of these on every materialized mutant
   before simulation: a statically-doomed candidate (e.g. a zero-delay
   feedback loop) is rejected in microseconds instead of burning a full
   simulation budget. *)

open Ast
module Names = Set.Make (String)
module SMap = Map.Make (String)

(* --- Declaration environment ------------------------------------------- *)

type env = {
  params : int SMap.t; (* constant-valued parameters *)
  widths : int SMap.t; (* declared net widths *)
  arrays : Names.t; (* memories (word-select indexing) *)
  regs : Names.t; (* nets declared reg (not integer) *)
  decl_inited : Names.t; (* nets with a declaration initializer *)
}

(* Constant folding over parameters; [None] when not statically known. *)
let rec const_eval (env : env) (e : expr) : int option =
  match e.e with
  | Number v -> Logic4.Vec.to_int v
  | IntLit n -> Some n
  | Ident n -> SMap.find_opt n env.params
  | Unop (op, a) -> (
      match (const_eval env a, op) with
      | Some x, Uplus -> Some x
      | Some x, Uminus -> Some (-x)
      | Some x, Unot -> Some (if x = 0 then 1 else 0)
      | _ -> None)
  | Binop (op, a, b) -> (
      match (const_eval env a, const_eval env b) with
      | Some x, Some y -> (
          let bool_ c = Some (if c then 1 else 0) in
          match op with
          | Add -> Some (x + y)
          | Sub -> Some (x - y)
          | Mul -> Some (x * y)
          | Div -> if y = 0 then None else Some (x / y)
          | Mod -> if y = 0 then None else Some (x mod y)
          | Land -> bool_ (x <> 0 && y <> 0)
          | Lor -> bool_ (x <> 0 || y <> 0)
          | Band -> Some (x land y)
          | Bor -> Some (x lor y)
          | Bxor -> Some (x lxor y)
          | Eq | Ceq -> bool_ (x = y)
          | Neq | Cneq -> bool_ (x <> y)
          | Lt -> bool_ (x < y)
          | Le -> bool_ (x <= y)
          | Gt -> bool_ (x > y)
          | Ge -> bool_ (x >= y)
          | Shl -> if y >= 0 && y < 62 then Some (x lsl y) else None
          | Shr -> if y >= 0 && y < 62 then Some (x lsr y) else None
          | Bxnor -> None)
      | _ -> None)
  | Cond (c, t, f) -> (
      match const_eval env c with
      | Some 0 -> const_eval env f
      | Some _ -> const_eval env t
      | None -> None)
  | _ -> None

let range_width env (r : range) : int option =
  match (const_eval env r.msb, const_eval env r.lsb) with
  | Some m, Some l -> Some (abs (m - l) + 1)
  | _ -> None

let build_env (m : module_decl) : env =
  let empty =
    {
      params = SMap.empty;
      widths = SMap.empty;
      arrays = Names.empty;
      regs = Names.empty;
      decl_inited = Names.empty;
    }
  in
  List.fold_left
    (fun env (item : item) ->
      match item.it with
      | ParamDecl (_, pairs) ->
          List.fold_left
            (fun env (n, e) ->
              match const_eval env e with
              | Some v -> { env with params = SMap.add n v env.params }
              | None -> env)
            env pairs
      | PortDecl (_, kind, range, names) ->
          let w =
            match range with
            | None -> Some 1
            | Some r -> range_width env r
          in
          List.fold_left
            (fun env n ->
              let env =
                match w with
                | Some w -> { env with widths = SMap.add n w env.widths }
                | None -> env
              in
              match kind with
              | Some Reg -> { env with regs = Names.add n env.regs }
              | _ -> env)
            env names
      | NetDecl (kind, range, ds) ->
          let w =
            match (kind, range) with
            | Integer, _ -> Some 32
            | _, None -> Some 1
            | _, Some r -> range_width env r
          in
          List.fold_left
            (fun env d ->
              let env =
                match w with
                | Some w -> { env with widths = SMap.add d.d_name w env.widths }
                | None -> env
              in
              let env =
                if d.d_array <> None then
                  { env with arrays = Names.add d.d_name env.arrays }
                else env
              in
              let env =
                if kind = Reg then { env with regs = Names.add d.d_name env.regs }
                else env
              in
              if d.d_init <> None then
                { env with decl_inited = Names.add d.d_name env.decl_inited }
              else env)
            env ds
      | _ -> env)
    empty m.items

(* --- Expression widths -------------------------------------------------- *)

(* Self-determined width; [None] means context-determined (unsized
   literals, parameters) or unknown — such operands adapt to the other
   side and are never reported as truncating. *)
let rec width_of (env : env) (e : expr) : int option =
  let join a b =
    match (a, b) with
    | Some x, Some y -> Some (max x y)
    | (Some _ as w), None | None, (Some _ as w) -> w
    | None, None -> None
  in
  match e.e with
  | Number v -> Some (Logic4.Vec.width v)
  | IntLit _ | String _ -> None
  | Ident n -> if SMap.mem n env.params then None else SMap.find_opt n env.widths
  | Index (n, _) ->
      if Names.mem n env.arrays then SMap.find_opt n env.widths else Some 1
  | RangeSel (_, a, b) -> (
      match (const_eval env a, const_eval env b) with
      | Some m, Some l -> Some (abs (m - l) + 1)
      | _ -> None)
  | Unop ((Uplus | Uminus | Ubnot), a) -> width_of env a
  | Unop (_, _) -> Some 1 (* reductions and ! *)
  | Binop ((Add | Sub | Mul | Div | Mod | Band | Bor | Bxor | Bxnor), a, b) ->
      join (width_of env a) (width_of env b)
  | Binop ((Shl | Shr), a, _) -> width_of env a
  | Binop (_, _, _) -> Some 1 (* relational, logical, case equality *)
  | Cond (_, t, f) -> join (width_of env t) (width_of env f)
  | Concat es ->
      List.fold_left
        (fun acc x ->
          match (acc, width_of env x) with
          | Some a, Some w -> Some (a + w)
          | _ -> None)
        (Some 0) es
  | Repl (n, x) -> (
      match (const_eval env n, width_of env x) with
      | Some k, Some w when k > 0 -> Some (k * w)
      | _ -> None)
  | Call _ -> None

let rec lvalue_width (env : env) (lv : lvalue) : int option =
  match lv with
  | LId n -> SMap.find_opt n env.widths
  | LIndex (n, _) ->
      if Names.mem n env.arrays then SMap.find_opt n env.widths else Some 1
  | LRange (_, a, b) -> (
      match (const_eval env a, const_eval env b) with
      | Some m, Some l -> Some (abs (m - l) + 1)
      | _ -> None)
  | LConcat lvs ->
      List.fold_left
        (fun acc l ->
          match (acc, lvalue_width env l) with
          | Some a, Some w -> Some (a + w)
          | _ -> None)
        (Some 0) lvs

(* --- Driver graph ------------------------------------------------------- *)

type driver_kind = Cont_assign | Comb_proc | Seq_proc

type driver = { dk : driver_kind; dnode : id; dsupports : Names.t }

type graph = {
  g_env : env;
  g_drivers : driver list SMap.t; (* net -> drivers, source order *)
  g_reads : Names.t; (* every identifier read in the module *)
  g_init_writes : Names.t; (* nets written by initial blocks *)
  g_reset_guarded : Names.t; (* nets assigned under a reset-style guard *)
}

let expr_names (e : expr) : Names.t =
  Names.of_list (Ast_utils.expr_idents e)

let lvalue_index_names (lv : lvalue) : Names.t =
  Ast_utils.fold_lvalue_exprs
    (fun acc (x : expr) ->
      match x.e with
      | Ident n | Index (n, _) | RangeSel (n, _, _) -> Names.add n acc
      | _ -> acc)
    Names.empty lv

(* Conservative reset-path recognition: a guard is reset-like when it reads
   a sensitivity-list edge signal other than the clock (the async-reset
   form) or a signal whose name says reset (the sync-reset form). *)
let resetish_name n =
  let n = String.lowercase_ascii n in
  let has sub =
    let ls = String.length sub and ln = String.length n in
    let rec go i = i + ls <= ln && (String.sub n i ls = sub || go (i + 1)) in
    go 0
  in
  has "rst" || has "reset" || has "clear" || has "clr" || has "init"
  || has "preset" || has "por"

let add_driver drivers n d =
  SMap.update n
    (function None -> Some [ d ] | Some ds -> Some (ds @ [ d ]))
    drivers

(* Per-assignment def-use edges for a combinational body: each assignment
   depends on its RHS, its LHS index expressions, and every enclosing
   control condition. Timing controls inside the body break the zero-delay
   path, so their subtrees are not walked. *)
let comb_assignments (body : stmt) : (id * Names.t * string list) list =
  let out = ref [] in
  let rec walk ctrl (s : stmt) =
    match s.s with
    | Block (_, body) -> List.iter (walk ctrl) body
    | Blocking (lhs, d, rhs) | Nonblocking (lhs, d, rhs) ->
        if d = None then
          let supports =
            Names.union ctrl
              (Names.union (expr_names rhs) (lvalue_index_names lhs))
          in
          out := (s.sid, supports, Ast_utils.lvalue_base lhs) :: !out
    | If (c, t, e) ->
        let ctrl = Names.union ctrl (expr_names c) in
        Option.iter (walk ctrl) t;
        Option.iter (walk ctrl) e
    | CaseStmt (_, subject, arms, default) ->
        let ctrl = Names.union ctrl (expr_names subject) in
        List.iter
          (fun arm ->
            let ctrl =
              List.fold_left
                (fun acc p -> Names.union acc (expr_names p))
                ctrl arm.patterns
            in
            Option.iter (walk ctrl) arm.arm_body)
          arms;
        Option.iter (walk ctrl) default
    | For (init, cond, step, body) ->
        let ctrl = Names.union ctrl (expr_names cond) in
        walk ctrl init;
        walk ctrl step;
        walk ctrl body
    | While (c, body) | Repeat (c, body) ->
        walk (Names.union ctrl (expr_names c)) body
    | Forever body -> walk ctrl body
    | Delay _ | EventCtrl _ | Wait _ -> () (* zero-delay path broken *)
    | Trigger _ | SysTask _ | Null -> ()
  in
  walk Names.empty body;
  List.rev !out

let stmt_writes (s : stmt) : Names.t =
  Ast_utils.fold_stmt
    (fun acc (sub : stmt) ->
      match sub.s with
      | Blocking (lhs, _, _) | Nonblocking (lhs, _, _) ->
          List.fold_left (fun acc n -> Names.add n acc) acc
            (Ast_utils.lvalue_base lhs)
      | _ -> acc)
    (fun acc _ -> acc)
    Names.empty s

(* Nets assigned inside the taken branch of a reset-style conditional. *)
let reset_guarded_writes ~(guards : Names.t) (body : stmt) : Names.t =
  Ast_utils.fold_stmt
    (fun acc (sub : stmt) ->
      match sub.s with
      | If (c, Some t, _) when not (Names.is_empty (Names.inter (expr_names c) guards)) ->
          Names.union acc (stmt_writes t)
      | _ -> acc)
    (fun acc _ -> acc)
    Names.empty body

let build (m : module_decl) : graph =
  let env = build_env m in
  let reads =
    Ast_utils.fold_module
      (fun acc _ -> acc)
      (fun acc (e : expr) ->
        match e.e with
        | Ident n | Index (n, _) | RangeSel (n, _, _) -> Names.add n acc
        | _ -> acc)
      Names.empty m
  in
  let drivers = ref SMap.empty in
  let init_writes = ref Names.empty in
  let reset_guarded = ref Names.empty in
  List.iter
    (fun (item : item) ->
      match item.it with
      | ContAssign assigns ->
          List.iter
            (fun (lhs, rhs) ->
              let supports =
                Names.union (expr_names rhs) (lvalue_index_names lhs)
              in
              List.iter
                (fun n ->
                  drivers :=
                    add_driver !drivers n
                      { dk = Cont_assign; dnode = item.iid; dsupports = supports })
                (Ast_utils.lvalue_base lhs))
            assigns
      | Initial s -> init_writes := Names.union !init_writes (stmt_writes s)
      | Always s -> (
          match s.s with
          | EventCtrl (specs, body) -> (
              let style = Lint.style_of_specs specs in
              let body = Option.value body ~default:{ sid = s.sid; s = Null } in
              match style with
              | Lint.Clocked ->
                  (* Edge-sensitive state: record drivers and reset facts. *)
                  let edge_sigs =
                    List.fold_left
                      (fun acc spec ->
                        match spec with
                        | Posedge e | Negedge e ->
                            Names.union acc (expr_names e)
                        | _ -> acc)
                      Names.empty specs
                  in
                  let guards =
                    Names.union
                      (Names.filter resetish_name reads)
                      edge_sigs
                  in
                  reset_guarded :=
                    Names.union !reset_guarded
                      (reset_guarded_writes ~guards body);
                  Names.iter
                    (fun n ->
                      drivers :=
                        add_driver !drivers n
                          { dk = Seq_proc; dnode = s.sid; dsupports = Names.empty })
                    (stmt_writes body)
              | _ ->
                  (* Combinational (or mixed) process: zero-delay edges
                     gated on the effective sensitivity — a read can only
                     re-trigger the block if it is listed (star = all). *)
                  let star = List.mem AnyChange specs in
                  let listed =
                    List.fold_left
                      (fun acc spec ->
                        match spec with
                        | Posedge e | Negedge e | Level e ->
                            Names.union acc (expr_names e)
                        | AnyChange -> acc)
                      Names.empty specs
                  in
                  List.iter
                    (fun (sid, supports, targets) ->
                      let supports =
                        if star then supports else Names.inter supports listed
                      in
                      List.iter
                        (fun n ->
                          drivers :=
                            add_driver !drivers n
                              { dk = Comb_proc; dnode = sid; dsupports = supports })
                        targets)
                    (comb_assignments body))
          | _ ->
              (* Self-timed process (e.g. [always #5 clk = ~clk]): a state
                 driver with no zero-delay fan-in. *)
              Names.iter
                (fun n ->
                  drivers :=
                    add_driver !drivers n
                      { dk = Seq_proc; dnode = s.sid; dsupports = Names.empty })
                (stmt_writes s))
      | _ -> ())
    m.items;
  {
    g_env = env;
    g_drivers = !drivers;
    g_reads = reads;
    g_init_writes = !init_writes;
    g_reset_guarded = !reset_guarded;
  }

let drivers_of (g : graph) (n : string) : driver list =
  Option.value (SMap.find_opt n g.g_drivers) ~default:[]

let nets (g : graph) : string list = List.map fst (SMap.bindings g.g_drivers)

let reads (g : graph) : Names.t = g.g_reads

(* --- Checks ------------------------------------------------------------- *)

type check = Comb_loop | Uninit_reg | Width | Const_cond | Dataflow_facts | Cone

let all_checks =
  [ Comb_loop; Uninit_reg; Width; Const_cond; Dataflow_facts; Cone ]

let finding = Lint.finding

(* Combinational loops: Tarjan SCC over the zero-delay def-use edges. *)
let check_comb_loop ~modname (g : graph) : Lint.finding list =
  let succs = Hashtbl.create 16 in
  let rep_node = Hashtbl.create 16 in
  let nodes = ref Names.empty in
  SMap.iter
    (fun target ds ->
      List.iter
        (fun d ->
          match d.dk with
          | Cont_assign | Comb_proc ->
              Names.iter
                (fun src ->
                  nodes := Names.add src (Names.add target !nodes);
                  Hashtbl.replace rep_node target d.dnode;
                  Hashtbl.replace succs src
                    (Names.add target
                       (Option.value (Hashtbl.find_opt succs src)
                          ~default:Names.empty)))
                d.dsupports
          | Seq_proc -> ())
        ds)
    g.g_drivers;
  (* Tarjan's strongly-connected components, iteratively small enough to
     recurse: modules here are a few hundred nets at most. *)
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    Names.iter
      (fun w ->
        if not (Hashtbl.mem index w) then (
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w)))
        else if Option.value (Hashtbl.find_opt on_stack w) ~default:false then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (Option.value (Hashtbl.find_opt succs v) ~default:Names.empty);
    if Hashtbl.find lowlink v = Hashtbl.find index v then (
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.replace on_stack w false;
            if w = v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs)
  in
  Names.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) !nodes;
  List.filter_map
    (fun scc ->
      let cyclic =
        match scc with
        | [ v ] ->
            Names.mem v
              (Option.value (Hashtbl.find_opt succs v) ~default:Names.empty)
        | _ -> List.length scc > 1
      in
      if not cyclic then None
      else
        let members = List.sort compare scc in
        let node =
          List.fold_left
            (fun acc n ->
              match acc with
              | Some _ -> acc
              | None -> Hashtbl.find_opt rep_node n)
            None members
          |> Option.value ~default:0
        in
        Some
          (finding Lint.Error "comb-loop" ~modname node
             "combinational feedback loop through %s (zero-delay cycle)"
             (String.concat " -> " (members @ [ List.hd members ]))))
    !sccs

(* X-propagation seeds: state registers that are read but have no
   initialization path, so they hold x from power-on and poison every
   computation they feed. *)
let check_uninit_reg ~modname (m : module_decl) (g : graph) : Lint.finding list =
  let env = g.g_env in
  let decl_node = Hashtbl.create 8 in
  List.iter
    (fun (item : item) ->
      match item.it with
      | NetDecl (_, _, ds) ->
          List.iter
            (fun d ->
              if not (Hashtbl.mem decl_node d.d_name) then
                Hashtbl.add decl_node d.d_name item.iid)
            ds
      | PortDecl (_, _, _, names) ->
          List.iter
            (fun n ->
              if not (Hashtbl.mem decl_node n) then Hashtbl.add decl_node n item.iid)
            names
      | _ -> ())
    m.items;
  let node_of n = Option.value (Hashtbl.find_opt decl_node n) ~default:m.mid in
  Names.fold
    (fun r acc ->
      if
        (not (Names.mem r g.g_reads))
        || Names.mem r env.arrays
        || Names.mem r env.decl_inited
        || Names.mem r g.g_init_writes
      then acc
      else
        match drivers_of g r with
        | [] ->
            finding Lint.Warning "uninit-reg" ~modname (node_of r)
              "%s is read but never assigned: it stays x forever" r
            :: acc
        | ds when List.for_all (fun d -> d.dk = Seq_proc) ds ->
            if Names.mem r g.g_reset_guarded then acc
            else
              finding Lint.Warning "uninit-reg" ~modname (node_of r)
                "%s is read but has no reset path or initial value (powers up as x)"
                r
              :: acc
        | _ -> acc (* combinationally recomputed: not state *))
    env.regs []
  |> List.rev

(* Bits needed to represent a non-negative literal value. *)
let bits_needed v =
  let rec go n v = if v = 0 then max n 1 else go (n + 1) (v lsr 1) in
  go 0 v

(* Width / truncation checking on assignments and port connections. *)
let check_width ?design ~modname (m : module_decl) (g : graph) :
    Lint.finding list =
  let env = g.g_env in
  let acc = ref [] in
  let check_assign node lhs rhs =
    match lvalue_width env lhs with
    | None -> ()
    | Some lw -> (
        match rhs.e with
        | IntLit v when v >= 0 ->
            if bits_needed v > lw then
              acc :=
                finding Lint.Warning "width-truncation" ~modname node
                  "literal %d needs %d bits but the target %s is %d bit%s wide"
                  v (bits_needed v)
                  (String.concat "," (Ast_utils.lvalue_base lhs))
                  lw
                  (if lw = 1 then "" else "s")
                :: !acc
        | _ -> (
            match width_of env rhs with
            | Some rw when rw > lw ->
                acc :=
                  finding Lint.Warning "width-truncation" ~modname node
                    "assignment truncates a %d-bit value into %d-bit %s" rw lw
                    (String.concat "," (Ast_utils.lvalue_base lhs))
                  :: !acc
            | _ -> ()))
  in
  List.iter
    (fun (item : item) ->
      match item.it with
      | ContAssign assigns ->
          List.iter (fun (lhs, rhs) -> check_assign item.iid lhs rhs) assigns
      | Always s | Initial s ->
          ignore
            (Ast_utils.fold_stmt
               (fun () (sub : stmt) ->
                 match sub.s with
                 | Blocking (lhs, _, rhs) | Nonblocking (lhs, _, rhs) ->
                     check_assign sub.sid lhs rhs
                 | _ -> ())
               (fun () _ -> ())
               () s)
      | Instance { mod_name; inst_name; conns; _ } -> (
          match design with
          | None -> ()
          | Some d -> (
              match
                List.find_opt
                  (fun (dm : module_decl) -> dm.mod_id = mod_name)
                  d
              with
              | None -> ()
              | Some callee ->
                  let cenv = build_env callee in
                  let port_width p = SMap.find_opt p cenv.widths in
                  let check_conn port e =
                    match (port_width port, width_of env e) with
                    | Some pw, Some ew when pw <> ew ->
                        acc :=
                          finding Lint.Warning "port-width" ~modname item.iid
                            "connection to %s.%s is %d bits but the port is %d bits"
                            inst_name port ew pw
                          :: !acc
                    | _ -> ()
                  in
                  List.iteri
                    (fun i conn ->
                      match conn with
                      | Named (p, Some e) -> check_conn p e
                      | Named (_, None) -> ()
                      | Positional e -> (
                          match List.nth_opt callee.mod_ports i with
                          | Some p -> check_conn p e
                          | None -> ()))
                    conns))
      | _ -> ())
    m.items;
  List.rev !acc

(* Constant conditions: control decided before simulation, leaving a
   branch (or loop body) unreachable. Subsumed by the dataflow fixpoint
   (PR 6): same stable rule id, but conditions over nets with constant
   drivers — not just parameters and literals — are proved too. *)
let check_const_cond ~modname (m : module_decl) (_g : graph) :
    Lint.finding list =
  Dataflow.const_cond_findings ~modname m

(* The remaining dataflow rules: constant nets, x sources, unreachable
   case arms and dead assignments. *)
let check_dataflow ~modname (m : module_decl) (_g : graph) :
    Lint.finding list =
  Dataflow.extra_findings ~modname m

(* Per-output backward-cone sizes (the [cone] rule family): how much of
   the module each output port transitively depends on — the slicing
   opportunity `cirfix slice` and slice-based repair exploit. Outputs are
   reported name-sorted, anchored at the port declaration. *)
let check_cone ?design ~modname (m : module_decl) (_g : graph) :
    Lint.finding list =
  let total_size = Ast_utils.module_size m in
  Slice.output_ports m |> List.sort compare
  |> List.filter_map (fun o ->
         let plan = Slice.slice ?design m ~outputs:[ o ] in
         if plan.Slice.sl_nodes_total = 0 then None
         else
           let node =
             List.find_map
               (fun (item : item) ->
                 match item.it with
                 | PortDecl (Output, _, _, names) when List.mem o names ->
                     Some item.iid
                 | _ -> None)
               m.items
             |> Option.value ~default:m.mid
           in
           let pct =
             if total_size = 0 then 100
             else
               100 * Ast_utils.module_size plan.Slice.sl_module / total_size
           in
           Some
             (finding Lint.Warning "cone" ~modname node
                "output %s: backward cone %d/%d nodes, %d/%d processes, %d%% \
                 of design"
                o
                (List.length plan.Slice.sl_kept)
                plan.Slice.sl_nodes_total plan.Slice.sl_procs_kept
                plan.Slice.sl_procs_total pct))

let check_module ?design ?(checks = all_checks) (m : module_decl) :
    Lint.finding list =
  let modname = m.mod_id in
  let g = build m in
  List.concat_map
    (function
      | Comb_loop -> check_comb_loop ~modname g
      | Uninit_reg -> check_uninit_reg ~modname m g
      | Width -> check_width ?design ~modname m g
      | Const_cond -> check_const_cond ~modname m g
      | Dataflow_facts -> check_dataflow ~modname m g
      | Cone -> check_cone ?design ~modname m g)
    checks

let check_design (d : design) : (string * Lint.finding list) list =
  List.map (fun (m : module_decl) -> (m.mod_id, check_module ~design:d m)) d

let screen ~checks (m : module_decl) : string option =
  (* Cone findings are descriptive (every output has a cone), never a
     reason to reject a mutant. *)
  let checks = List.filter (fun c -> c <> Cone) checks in
  match check_module ?design:None ~checks m with
  | [] -> None
  | findings ->
      let errors, warnings =
        List.partition (fun (f : Lint.finding) -> f.severity = Lint.Error)
          findings
      in
      let f = match errors with f :: _ -> f | [] -> List.hd warnings in
      Some (Format.asprintf "%a" Lint.pp_finding f)
