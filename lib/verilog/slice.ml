(* Semantic slicing (paper follow-up direction; ARSP, arXiv 2508.16517):
   backward/forward cones of influence over a module-level def-use graph,
   and extraction of self-contained sliced modules for slice-based repair.

   The graph is item-granular: a whole always block is one node, so kept
   processes are kept verbatim and every statement id of the slice exists
   unchanged in the original module. That verbatim property is what makes
   stitching trivial — a repair patch found against the slice applies to
   the whole module by node id, no translation step.

   Soundness hinges on two closure rules:
   - fan-in closure: every net an in-cone node reads has all of its
     drivers in the cone (or is promoted to an input port);
   - write closure: every net an in-cone node writes keeps all of its
     other writers too, so partially-driven registers never split.
   Under both, a backward-only slice computes exactly the whole module's
   values on its retained outputs. *)

open Ast
module Names = Set.Make (String)
module Ids = Set.Make (Int)

(* --- Read/write collection ---------------------------------------------- *)

let add_expr_names acc e =
  Ast_utils.fold_expr
    (fun acc (x : expr) ->
      match x.e with
      | Ident n | Index (n, _) | RangeSel (n, _, _) -> Names.add n acc
      | _ -> acc)
    acc e

let lvalue_bases acc lv =
  List.fold_left (Fun.flip Names.add) acc (Ast_utils.lvalue_base lv)

(* Every identifier read anywhere in a statement: right-hand sides,
   conditions, delays, event specs, and index expressions on both sides
   of assignments. (fold_stmt visits lvalue index expressions and event
   specs, so this is the full fan-in a sequential process needs — unlike
   Analysis.dsupports, which is deliberately empty for clocked drivers.) *)
let stmt_reads acc s =
  Ast_utils.fold_stmt
    (fun acc _ -> acc)
    (fun acc (x : expr) ->
      match x.e with
      | Ident n | Index (n, _) | RangeSel (n, _, _) -> Names.add n acc
      | _ -> acc)
    acc s

let stmt_writes acc s =
  Ast_utils.fold_stmt
    (fun acc (sub : stmt) ->
      match sub.s with
      | Blocking (lhs, _, _) | Nonblocking (lhs, _, _) -> lvalue_bases acc lhs
      | _ -> acc)
    (fun acc _ -> acc)
    acc s

let expr_base (e : expr) =
  match e.e with
  | Ident n | Index (n, _) | RangeSel (n, _, _) -> Some n
  | _ -> None

(* --- Graph --------------------------------------------------------------- *)

type node = {
  n_id : Ast.id;
  n_reads : Names.t;
  n_writes : Names.t;
  n_process : bool;
}

type graph = {
  g_mod : module_decl;
  g_nodes : node list; (* source order *)
  g_writers : (string, node list) Hashtbl.t; (* source order per net *)
  g_owner : (int, Ast.id) Hashtbl.t; (* any contained id -> item id *)
}

let port_names dir (m : module_decl) =
  List.concat_map
    (fun (item : item) ->
      match item.it with
      | PortDecl (d, _, _, names) when d = dir -> names
      | _ -> [])
    m.items
  |> List.filter (fun n -> List.mem n m.mod_ports)

let output_ports m = port_names Output m
let input_ports m = port_names Input m

(* Port direction map of an instantiated module. *)
let directions (md : module_decl) : (string, direction) Hashtbl.t =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (item : item) ->
      match item.it with
      | PortDecl (d, _, _, names) ->
          List.iter (fun n -> if not (Hashtbl.mem t n) then Hashtbl.add t n d) names
      | _ -> ())
    md.items;
  t

(* Resolve instance connections to (port, expr) pairs, positional ones by
   the instantiated module's header order (the elaborator's own rule). *)
let resolved_conns (child_ports : string list) conns =
  List.mapi
    (fun i conn ->
      match conn with
      | Named (p, e) -> (p, e)
      | Positional e ->
          ( (match List.nth_opt child_ports i with Some p -> p | None -> ""),
            Some e ))
    conns
  |> List.filter (fun (p, _) -> p <> "")

let instance_rw ?design ~mod_name ~params ~conns () =
  let param_reads =
    List.fold_left (fun acc (_, e) -> add_expr_names acc e) Names.empty params
  in
  let child =
    match design with
    | None -> None
    | Some d -> List.find_opt (fun (md : module_decl) -> md.mod_id = mod_name) d
  in
  match child with
  | Some md ->
      let dirs = directions md in
      List.fold_left
        (fun (reads, writes) (p, e) ->
          match (e, Hashtbl.find_opt dirs p) with
          | None, _ -> (reads, writes)
          | Some e, Some Input -> (add_expr_names reads e, writes)
          | Some e, Some Output -> (
              match expr_base e with
              | Some n ->
                  (* index expressions inside the connection are reads;
                     the base net itself is the write *)
                  let sub = Names.remove n (add_expr_names Names.empty e) in
                  (Names.union reads sub, Names.add n writes)
              | None -> (add_expr_names reads e, writes))
          | Some e, (Some Inout | None) ->
              (* unknown or bidirectional: both sides, conservatively *)
              let reads = add_expr_names reads e in
              let writes =
                match expr_base e with Some n -> Names.add n writes | None -> writes
              in
              (reads, writes))
        (param_reads, Names.empty)
        (resolved_conns md.mod_ports conns)
  | None ->
      (* opaque instance: alias every connected net both ways *)
      List.fold_left
        (fun (reads, writes) conn ->
          match conn with
          | Named (_, None) -> (reads, writes)
          | Named (_, Some e) | Positional e ->
              let reads = add_expr_names reads e in
              let writes =
                match expr_base e with Some n -> Names.add n writes | None -> writes
              in
              (reads, writes))
        (param_reads, Names.empty)
        conns

(* A logic node for items that compute values; None for pure declarations. *)
let node_of_item ?design (item : item) : node option =
  match item.it with
  | ContAssign assigns ->
      let reads, writes =
        List.fold_left
          (fun (r, w) (lhs, rhs) ->
            let r = add_expr_names r rhs in
            let r =
              Ast_utils.fold_lvalue_exprs
                (fun acc (x : expr) ->
                  match x.e with
                  | Ident n | Index (n, _) | RangeSel (n, _, _) ->
                      Names.add n acc
                  | _ -> acc)
                r lhs
            in
            (r, lvalue_bases w lhs))
          (Names.empty, Names.empty) assigns
      in
      Some { n_id = item.iid; n_reads = reads; n_writes = writes; n_process = false }
  | Always s | Initial s ->
      Some
        {
          n_id = item.iid;
          n_reads = stmt_reads Names.empty s;
          n_writes = stmt_writes Names.empty s;
          n_process = true;
        }
  | Instance { mod_name; params; conns; _ } ->
      let reads, writes = instance_rw ?design ~mod_name ~params ~conns () in
      Some { n_id = item.iid; n_reads = reads; n_writes = writes; n_process = false }
  | NetDecl (_, _, ds) when List.exists (fun d -> d.d_init <> None) ds ->
      let reads, writes =
        List.fold_left
          (fun (r, w) d ->
            match d.d_init with
            | None -> (r, w)
            | Some e -> (add_expr_names r e, Names.add d.d_name w))
          (Names.empty, Names.empty) ds
      in
      Some { n_id = item.iid; n_reads = reads; n_writes = writes; n_process = false }
  | _ -> None

(* Owning-item index: every statement, expression and arm id inside an
   item maps back to the item, so fault-localization sets (statement and
   expression ids) resolve to graph nodes. *)
let index_owner (t : (int, Ast.id) Hashtbl.t) (item : item) =
  Hashtbl.replace t item.iid item.iid;
  ignore
    (Ast_utils.fold_item
       (fun () (s : stmt) -> Hashtbl.replace t s.sid item.iid)
       (fun () (e : expr) -> Hashtbl.replace t e.eid item.iid)
       () item)

let build ?design (m : module_decl) : graph =
  let nodes = List.filter_map (node_of_item ?design) m.items in
  let writers = Hashtbl.create 32 in
  List.iter
    (fun n ->
      Names.iter
        (fun w ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt writers w) in
          Hashtbl.replace writers w (prev @ [ n ]))
        n.n_writes)
    nodes;
  let owner = Hashtbl.create 64 in
  List.iter (index_owner owner) m.items;
  { g_mod = m; g_nodes = nodes; g_writers = writers; g_owner = owner }

let nodes g = g.g_nodes

let writers_of g n = Option.value ~default:[] (Hashtbl.find_opt g.g_writers n)

(* Backward cone with write closure: a worklist over net names. Taking a
   name pulls in all of its writers; each new writer contributes both its
   reads (fan-in closure) and its writes (write closure) back to the
   worklist. *)
let backward (g : graph) (seed : Names.t) : Ids.t * Names.t =
  let kept = ref Ids.empty in
  let seen = ref Names.empty in
  let work = Queue.create () in
  Names.iter (fun n -> Queue.add n work) seed;
  seen := seed;
  while not (Queue.is_empty work) do
    let name = Queue.pop work in
    List.iter
      (fun node ->
        if not (Ids.mem node.n_id !kept) then begin
          kept := Ids.add node.n_id !kept;
          Names.iter
            (fun n ->
              if not (Names.mem n !seen) then begin
                seen := Names.add n !seen;
                Queue.add n work
              end)
            (Names.union node.n_reads node.n_writes)
        end)
      (writers_of g name)
  done;
  (!kept, !seen)

let containing_items (g : graph) (ids : Ids.t) : Ids.t =
  Ids.fold
    (fun id acc ->
      match Hashtbl.find_opt g.g_owner id with
      | Some iid -> Ids.add iid acc
      | None -> acc)
    ids Ids.empty

let forward (g : graph) (seed : Ids.t) : Ids.t =
  let seed = containing_items g seed in
  let in_cone = ref (Ids.filter (fun iid -> List.exists (fun n -> n.n_id = iid) g.g_nodes) seed) in
  let names = ref Names.empty in
  List.iter
    (fun n -> if Ids.mem n.n_id !in_cone then names := Names.union n.n_writes !names)
    g.g_nodes;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        if (not (Ids.mem n.n_id !in_cone)) && not (Names.disjoint n.n_reads !names)
        then begin
          in_cone := Ids.add n.n_id !in_cone;
          names := Names.union n.n_writes !names;
          changed := true
        end)
      g.g_nodes
  done;
  !in_cone

(* --- Slice extraction ----------------------------------------------------- *)

type plan = {
  sl_module : Ast.module_decl;
  sl_outputs : string list;
  sl_inputs : string list;
  sl_promoted : string list;
  sl_kept : Ast.id list;
  sl_dropped : Ast.id list;
  sl_names : Names.t;
  sl_nodes_total : int;
  sl_procs_kept : int;
  sl_procs_total : int;
  sl_hash : string;
}

(* Declared range of a net, from its first port or net declaration. *)
let range_of (m : module_decl) (name : string) : range option =
  List.find_map
    (fun (item : item) ->
      match item.it with
      | PortDecl (_, _, r, names) when List.mem name names -> Some r
      | NetDecl (_, r, ds) when List.exists (fun d -> d.d_name = name) ds ->
          Some r
      | _ -> None)
    m.items
  |> Option.join

(* Close a kept-node set under writes: any net written by a kept node
   keeps all of its writers (within [univ]). *)
let write_closure (g : graph) ~(univ : Ids.t) (start : Ids.t) : Ids.t =
  let kept = ref start in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        if Ids.mem n.n_id !kept then
          Names.iter
            (fun w ->
              List.iter
                (fun other ->
                  if Ids.mem other.n_id univ && not (Ids.mem other.n_id !kept)
                  then begin
                    kept := Ids.add other.n_id !kept;
                    changed := true
                  end)
                (writers_of g w))
            n.n_writes)
      g.g_nodes
  done;
  !kept

let slice ?design ?(focus = Ids.empty) (m : module_decl)
    ~(outputs : string list) : plan =
  let g = build ?design m in
  let out_ports = output_ports m in
  let seed =
    Names.of_list (List.filter (fun o -> List.mem o out_ports) outputs)
  in
  let bwd, _ = backward g seed in
  let kept =
    if Ids.is_empty focus then bwd
    else
      let fwd = forward g focus in
      let inter = Ids.inter bwd fwd in
      if Ids.is_empty inter then bwd else write_closure g ~univ:bwd inter
  in
  (* Names the kept logic touches, plus the seed outputs themselves (an
     undriven output keeps its declaration). *)
  let used =
    List.fold_left
      (fun acc n ->
        if Ids.mem n.n_id kept then Names.union acc (Names.union n.n_reads n.n_writes)
        else acc)
      seed g.g_nodes
  in
  let inputs = Names.of_list (input_ports m) in
  let written_in_slice =
    List.fold_left
      (fun acc n -> if Ids.mem n.n_id kept then Names.union acc n.n_writes else acc)
      Names.empty g.g_nodes
  in
  (* Cut points: nets the slice reads that had drivers in the module but
     none in the slice. Backward-only slices never have any (fan-in
     closure); only a focus intersection creates them. *)
  let promoted =
    Names.filter
      (fun n ->
        (not (Names.mem n inputs))
        && (not (Names.mem n written_in_slice))
        && writers_of g n <> [])
      used
  in
  let keep_name n = Names.mem n used && not (Names.mem n promoted) in
  let items =
    List.filter_map
      (fun (item : item) ->
        match item.it with
        | PortDecl (dir, kind, r, names) ->
            let names' = List.filter keep_name names in
            if names' = [] then None
            else Some { item with it = PortDecl (dir, kind, r, names') }
        | NetDecl (kind, r, ds) ->
            let kept_item = Ids.mem item.iid kept in
            let ds' =
              List.filter (fun d -> keep_name d.d_name) ds
              |> List.map (fun d ->
                     if kept_item then d else { d with d_init = None })
            in
            if ds' = [] then None else Some { item with it = NetDecl (kind, r, ds') }
        | ParamDecl _ | DefineStub _ -> Some item
        | EventDecl names ->
            let names' = List.filter keep_name names in
            if names' = [] then None else Some { item with it = EventDecl names' }
        | ContAssign _ | Always _ | Initial _ | Instance _ ->
            if Ids.mem item.iid kept then Some item else None)
      m.items
  in
  let promoted_list = Names.elements promoted in
  let promoted_decls =
    List.map
      (fun n -> mk_i (PortDecl (Input, None, range_of m n, [ n ])))
      promoted_list
  in
  (* Promoted inputs go right after the last surviving port declaration. *)
  let items =
    if promoted_decls = [] then items
    else begin
      let rec insert acc = function
        | ({ it = PortDecl _; _ } as a) :: (({ it = PortDecl _; _ } :: _) as rest)
          ->
            insert (a :: acc) rest
        | ({ it = PortDecl _; _ } as a) :: rest ->
            List.rev_append acc ((a :: promoted_decls) @ rest)
        | rest -> List.rev_append acc (promoted_decls @ rest)
      in
      insert [] items
    end
  in
  let mod_ports =
    List.filter keep_name m.mod_ports @ promoted_list
  in
  let sl_module = { m with mod_ports; items } in
  let logic_ids = List.map (fun n -> n.n_id) g.g_nodes in
  let kept_ids = List.filter (fun id -> Ids.mem id kept) logic_ids in
  let dropped_ids = List.filter (fun id -> not (Ids.mem id kept)) logic_ids in
  let procs p = List.filter (fun n -> n.n_process && p n) g.g_nodes in
  {
    sl_module;
    sl_outputs = List.filter (fun p -> keep_name p) out_ports;
    sl_inputs = List.filter (fun p -> keep_name p) (input_ports m);
    sl_promoted = promoted_list;
    sl_kept = kept_ids;
    sl_dropped = dropped_ids;
    sl_names = used;
    sl_nodes_total = List.length logic_ids;
    sl_procs_kept = List.length (procs (fun n -> Ids.mem n.n_id kept));
    sl_procs_total = List.length (procs (fun _ -> true));
    sl_hash = Ast_utils.structural_hash sl_module;
  }

(* --- Testbench harness ---------------------------------------------------- *)

let find_instance (tb : module_decl) ~(inst : string) ~(target : string) =
  List.find_opt
    (fun (item : item) ->
      match item.it with
      | Instance { mod_name; inst_name; _ } ->
          inst_name = inst && mod_name = target
      | _ -> false)
    tb.items

let tb_read_outputs ~(tb : module_decl) ~(inst : string)
    ~(target : module_decl) : Names.t =
  match find_instance tb ~inst ~target:target.mod_id with
  | None -> Names.empty
  | Some dut_item ->
      let dirs = directions target in
      let conns =
        match dut_item.it with
        | Instance { conns; _ } -> resolved_conns target.mod_ports conns
        | _ -> []
      in
      (* Reads anywhere in the testbench outside the DUT instance itself,
         plus the DUT's own input connections (feedback wired straight
         back in). System-task arguments count: $display differences are
         observable too. *)
      let tb_reads =
        List.fold_left
          (fun acc (item : item) ->
            if item.iid = dut_item.iid then acc
            else
              Ast_utils.fold_item
                (fun acc _ -> acc)
                (fun acc (x : expr) ->
                  match x.e with
                  | Ident n | Index (n, _) | RangeSel (n, _, _) ->
                      Names.add n acc
                  | _ -> acc)
                acc item)
          Names.empty tb.items
      in
      let tb_reads =
        List.fold_left
          (fun acc (p, e) ->
            match (e, Hashtbl.find_opt dirs p) with
            | Some e, Some Input -> add_expr_names acc e
            | _ -> acc)
          tb_reads conns
      in
      List.fold_left
        (fun acc (p, e) ->
          match (e, Hashtbl.find_opt dirs p) with
          | Some e, Some Output -> (
              match expr_base e with
              | Some n when Names.mem n tb_reads -> Names.add p acc
              | _ -> acc)
          | _ -> acc)
        Names.empty conns

let replay_reg n = "__slice_" ^ n
let probe_port n = "__probe_" ^ n

let rewrite_testbench ~(tb : module_decl) ~(inst : string)
    ~(target : module_decl) (plan : plan) : module_decl =
  match find_instance tb ~inst ~target:target.mod_id with
  | None -> tb
  | Some dut_item ->
      let conn_map =
        match dut_item.it with
        | Instance { conns; _ } -> resolved_conns target.mod_ports conns
        | _ -> []
      in
      let conns' =
        List.filter_map
          (fun p ->
            if List.mem p plan.sl_promoted then
              Some (Named (p, Some (mk_e (Ident (replay_reg p)))))
            else
              match List.assoc_opt p conn_map with
              | Some e -> Some (Named (p, e))
              | None -> None)
          plan.sl_module.mod_ports
      in
      let regs =
        List.map
          (fun p ->
            mk_i
              (NetDecl
                 ( Reg,
                   range_of target p,
                   [ { d_name = replay_reg p; d_array = None; d_init = None } ]
                 )))
          plan.sl_promoted
      in
      let items =
        List.concat_map
          (fun (item : item) ->
            if item.iid <> dut_item.iid then [ item ]
            else
              let inst' =
                match dut_item.it with
                | Instance i -> { item with it = Instance { i with conns = conns' } }
                | _ -> item
              in
              regs @ [ inst' ])
          tb.items
      in
      { tb with items }

let probe_module (m : module_decl) (plan : plan) : module_decl =
  if plan.sl_promoted = [] then m
  else
    let ports =
      List.map
        (fun n -> mk_i (PortDecl (Output, None, range_of m n, [ probe_port n ])))
        plan.sl_promoted
    in
    let assigns =
      List.map
        (fun n ->
          mk_i (ContAssign [ (LId (probe_port n), mk_e (Ident n)) ]))
        plan.sl_promoted
    in
    {
      m with
      mod_ports = m.mod_ports @ List.map probe_port plan.sl_promoted;
      items = m.items @ ports @ assigns;
    }

let probe_testbench ~(tb : module_decl) ~(inst : string)
    ~(target : module_decl) (plan : plan) : module_decl =
  match find_instance tb ~inst ~target:target.mod_id with
  | None -> tb
  | Some dut_item ->
      let wires =
        List.map
          (fun n ->
            mk_i
              (NetDecl
                 ( Wire,
                   range_of target n,
                   [
                     {
                       d_name = probe_port n;
                       d_array = None;
                       d_init = None;
                     };
                   ] )))
          plan.sl_promoted
      in
      let items =
        List.concat_map
          (fun (item : item) ->
            if item.iid <> dut_item.iid then [ item ]
            else
              let inst' =
                match dut_item.it with
                | Instance i ->
                    let extra =
                      List.map
                        (fun n ->
                          Named (probe_port n, Some (mk_e (Ident (probe_port n)))))
                        plan.sl_promoted
                    in
                    { item with it = Instance { i with conns = i.conns @ extra } }
                | _ -> item
              in
              wires @ [ inst' ])
          tb.items
      in
      { tb with items }

let replay_items (plan : plan) ~samples : item list =
  if plan.sl_promoted = [] || samples = [] then []
  else
    let prev : (string, Logic4.Vec.t) Hashtbl.t = Hashtbl.create 8 in
    let steps =
      List.fold_left
        (fun (t_prev, acc) (t, values) ->
          let assigns =
            List.filter_map
              (fun (n, v) ->
                if not (List.mem n plan.sl_promoted) then None
                else if Hashtbl.find_opt prev n = Some v then None
                else begin
                  Hashtbl.replace prev n v;
                  Some (mk_s (Nonblocking (LId (replay_reg n), None, mk_e (Number v))))
                end)
              values
          in
          match assigns with
          | [] -> (t_prev, acc)
          | [ one ] ->
              (t, mk_s (Delay (mk_e (IntLit (t - t_prev)), Some one)) :: acc)
          | many ->
              ( t,
                mk_s
                  (Delay
                     (mk_e (IntLit (t - t_prev)), Some (mk_s (Block (None, many)))))
                :: acc ))
        (0, []) samples
      |> snd |> List.rev
    in
    if steps = [] then []
    else [ mk_i (Initial (mk_s (Block (None, steps)))) ]

(* --- Reporting helpers ----------------------------------------------------- *)

let cone_lines (m : module_decl) (plan : plan) : (string, unit) Hashtbl.t =
  let t = Hashtbl.create 64 in
  let add_rendering (item : item) =
    let s = Format.asprintf "%a" Pp.pp_item item in
    String.split_on_char '\n' s
    |> List.iter (fun line ->
           let line = String.trim line in
           if line <> "" then Hashtbl.replace t line ())
  in
  let kept = Ids.of_list plan.sl_kept in
  List.iter
    (fun (item : item) ->
      match item.it with
      | ContAssign _ | Always _ | Initial _ | Instance _ ->
          if Ids.mem item.iid kept then add_rendering item
      | NetDecl (_, _, ds) ->
          if
            Ids.mem item.iid kept
            || List.exists (fun d -> Names.mem d.d_name plan.sl_names) ds
          then add_rendering item
      | PortDecl (_, _, _, names) ->
          if List.exists (fun n -> Names.mem n plan.sl_names) names then
            add_rendering item
      | ParamDecl _ | EventDecl _ | DefineStub _ -> add_rendering item)
    m.items;
  t
