module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Query = Mortar_core.Query
module Value = Mortar_core.Value

type recorded = {
  sim_time : float;
  slot : int;
  count : int;
  value : float;
  hops : int;
  hops_max : int;
  age : float;
}

type t = {
  d : D.t;
  treeset : Mortar_overlay.Treeset.t;
  ledger : Peer.result Ledger.t; (* keyed by the root's slot *)
  track_provenance : bool;
}

let query_name = Scenario.peer_count_query

let create (s : Scenario.t) =
  let { Scenario.d; tree_sets; _ } = Scenario.build s in
  let track_provenance =
    List.exists (fun (q : Scenario.install) -> q.meta.Query.track_provenance) s.queries
  in
  let t = { d; treeset = tree_sets.(0); ledger = Ledger.create [ query_name ]; track_provenance } in
  Peer.on_result (D.peer d 0) (fun (r : Peer.result) ->
      Ledger.record t.ledger ~query:query_name ~bucket:r.slot ~count:r.count ~at:(D.now d) r);
  t

let deployment t = t.d

let run_until t time = D.run_until t.d time

let results t =
  List.map
    (fun { Ledger.at; data = (r : Peer.result); _ } ->
      let value = match r.value with Value.Null -> 0.0 | v -> Value.to_float v in
      {
        sim_time = at;
        slot = r.slot;
        count = r.count;
        value;
        hops = r.hops;
        hops_max = r.hops_max;
        age = r.age;
      })
    (Ledger.emissions t.ledger query_name)

let results_between t t0 t1 =
  List.filter (fun r -> r.sim_time >= t0 && r.sim_time < t1) (results t)

let provenance_results t =
  if not t.track_provenance then []
  else
    List.map
      (fun { Ledger.at; data = (r : Peer.result); _ } -> (at, r.prov))
      (Ledger.emissions t.ledger query_name)

let live_hosts t = List.length (D.up_hosts t.d)

let union_bound t =
  let up = D.up_hosts t.d in
  let up_set = Hashtbl.create (List.length up) in
  List.iter (fun h -> Hashtbl.replace up_set h ()) up;
  List.length
    (Mortar_overlay.Connectivity.union_reachable
       (Mortar_overlay.Treeset.trees t.treeset)
       ~dead:(fun node -> not (Hashtbl.mem up_set node)))

let fail_fraction t fraction = D.fail_random t.d ~fraction ~protect:[ 0 ] ()

let reconnect t victims = List.iter (fun v -> D.set_up t.d v true) victims

(* Ground truth over the *current* per-tree parents (the static plan's,
   as mutated by self-healing adoptions): a live installed host can get
   summaries to the root iff the union graph of its current parent edges
   — restricted to live *installed* hosts, since an uninstalled peer
   buffers or drops foreign summaries rather than forwarding them —
   connects it to node 0. Mirrors [union_bound]'s union-reachability
   semantics, but over the repaired topology instead of the static one. *)
let repaired_unreachable t =
  let n = D.hosts t.d in
  let up = Array.make n false in
  List.iter (fun h -> up.(h) <- true) (D.up_hosts t.d);
  let parents = Array.make n None in
  let forwards = Array.make n false in
  for h = 0 to n - 1 do
    if up.(h) then begin
      parents.(h) <- Peer.current_parents (D.peer t.d h) ~query:query_name;
      forwards.(h) <- parents.(h) <> None
    end
  done;
  let children = Array.make n [] in
  for h = 0 to n - 1 do
    match parents.(h) with
    | None -> ()
    | Some ps ->
      Array.iter
        (function
          | Some p when forwards.(p) -> children.(p) <- h :: children.(p)
          | _ -> ())
        ps
  done;
  let reach = Array.make n false in
  if forwards.(0) then begin
    reach.(0) <- true;
    let q = Queue.create () in
    Queue.push 0 q;
    while not (Queue.is_empty q) do
      let p = Queue.pop q in
      List.iter
        (fun c ->
          if not reach.(c) then begin
            reach.(c) <- true;
            Queue.push c q
          end)
        children.(p)
    done
  end;
  let missing = ref [] in
  for h = n - 1 downto 1 do
    if forwards.(h) && not reach.(h) then missing := h :: !missing
  done;
  !missing

let uninstalled_live_hosts t =
  List.filter
    (fun h -> h <> 0 && not (Peer.has_query (D.peer t.d h) query_name))
    (D.up_hosts t.d)

let mean_completeness t t0 t1 ~denominator =
  Ledger.completeness t.ledger
    ~queries:[ (query_name, fun _ -> denominator) ]
    (Ledger.Delivered (t0, t1))

(* Mean of [f] over the best emissions delivered in [t0, t1). *)
let mean_of t t0 t1 f =
  Ledger.windows t.ledger query_name (Ledger.Delivered (t0, t1))
  |> List.filter_map (fun (_, e) -> Option.map (fun (e : Peer.result Ledger.emission) -> f e.data) e)
  |> Array.of_list |> Mortar_util.Stats.mean

let mean_path_length t t0 t1 = mean_of t t0 t1 (fun r -> float_of_int r.hops)

let mean_max_path_length t t0 t1 = mean_of t t0 t1 (fun r -> float_of_int r.hops_max)

let mean_latency t t0 t1 = mean_of t t0 t1 (fun r -> r.age)
