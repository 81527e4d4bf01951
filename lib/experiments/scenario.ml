module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Query = Mortar_core.Query
module Value = Mortar_core.Value
module Window = Mortar_core.Window
module Treeset = Mortar_overlay.Treeset

type topology = { seed : int; hosts : int; transits : int; stubs : int }

type deployment = {
  seed : int; config : Peer.config; loss : float;
  offsets : float array option; skews : float array option;
}

type hosts = All | Only of int list

type shape = Planned of [ `Rotation | `Cluster_shuffle ] | Random

type tree_set = { root : int; members : hosts; bf : int; degree : int; shape : shape }

type planner = { bf : int; degree : int; seed : int }

type value = Ones | Zipf_record of { domain : int } | Ramp

type sensors = { stream : string; period : float; hosts : hosts; value : value }

type install = { meta : Query.meta; tree_set : int; at : float }

type churn = {
  seed : int; from : float; until : float; protect : int list;
  churn_period : float; churn_kills : int; down_min : float; down_max : float;
  burst_period : float; burst_len : float;
  kill_period : float; kill_fraction : float; kill_len : float;
}

type t = {
  topology : topology; deployment : deployment; tree_sets : tree_set list;
  planner : planner option; sensors : sensors list; queries : install list;
  faults : D.fault_event list; churn : churn option;
}

let peer_count_query = "peer-count"

let peer_count ~seed ~hosts =
  let meta =
    Query.make_meta ~name:peer_count_query ~source:"ones" ~op:Mortar_core.Op.Sum
      ~window:(Window.tumbling 1.0) ~root:0 ~total_nodes:hosts ()
  in
  {
    topology = { seed = seed * 7919; hosts; transits = 8; stubs = 34 };
    deployment = { seed; config = Peer.default_config; loss = 0.0; offsets = None; skews = None };
    tree_sets = [ { root = 0; members = All; bf = 16; degree = 4; shape = Planned `Cluster_shuffle } ];
    planner = None;
    sensors = [ { stream = "ones"; period = 1.0; hosts = All; value = Ones } ];
    queries = [ { meta; tree_set = 0; at = 1.0 } ];
    faults = [];
    churn = None;
  }

let map_tree_sets f t = { t with tree_sets = List.map f t.tree_sets }

let map_metas f t = { t with queries = List.map (fun q -> { q with meta = f q.meta }) t.queries }

type built = { d : D.t; tree_sets : Treeset.t array; registry : Mortar_plan.Registry.t option }

(* ------------------------------------------------------------------ *)
(* The sketch workload: host h's k-th draw is Zipf(1)-skewed over the
   domain by seeded hashing, a pure function of (host, k). *)

let zipf_cdf domain =
  let w = Array.init domain (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let cdf = Array.make domain 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      acc := !acc +. (x /. total);
      cdf.(i) <- !acc)
    w;
  cdf

let draw_value cdf ~host ~k =
  let h = Mortar_sketch.Hash.hash_int ~seed:(host + 1) k in
  let u = float_of_int h /. (float_of_int max_int +. 1.0) in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* ------------------------------------------------------------------ *)

let host_list d = function All -> List.init (D.hosts d) Fun.id | Only l -> l

let tree_set d (ts : tree_set) =
  let nodes = host_list d ts.members |> List.filter (fun h -> h <> ts.root) |> Array.of_list in
  match ts.shape with
  | Planned _ when Array.length nodes = 0 ->
    Treeset.create ~primary:(Mortar_overlay.Tree.of_parents ~root:ts.root []) ~siblings:[]
  | Planned style -> D.plan d ~style ~bf:ts.bf ~d:ts.degree ~root:ts.root ~nodes ()
  | Random -> D.plan_random d ~bf:ts.bf ~d:ts.degree ~root:ts.root ~nodes ()

(* [generator value node k]: what host [node] injects as its k-th tuple. *)
let generator = function
  | Ones -> fun _ _ -> Value.Int 1
  | Zipf_record { domain } ->
    let cdf = zipf_cdf domain in
    fun node k ->
      Value.Record
        [
          ("id", Value.Int ((node * 1_000_000) + k));
          ("v", Value.Int (draw_value cdf ~host:node ~k));
        ]
  | Ramp -> fun node k -> Value.Float (float_of_int ((node + k) mod 100))

(* The slide of the first provenance-tracking time-window query on
   [stream], if any. *)
let truth_slide queries stream =
  List.find_map
    (fun q ->
      match q.meta.Query.window with
      | Window.Time { slide; _ } when q.meta.track_provenance && q.meta.source = stream ->
        Some slide
      | _ -> None)
    queries

let attach_sensors d ~queries sensors =
  List.iter
    (fun s ->
      let truth_slide = truth_slide queries s.stream and gen = generator s.value in
      List.iter
        (fun node -> D.sensor d ~node ~stream:s.stream ~period:s.period ?truth_slide (gen node))
        (host_list d s.hosts))
    sensors

let topology t =
  let { seed; hosts; transits; stubs } = t.topology in
  Mortar_net.Topology.transit_stub (Mortar_util.Rng.create seed) ~transits ~stubs ~hosts ()

let build ?domains t =
  let topo = topology t in
  let { seed; config; loss; offsets; skews } = t.deployment in
  let d = D.create_sharded ~seed ~config ~loss ?offsets ?skews ?domains topo in
  let planned = function { shape = Planned _; _ } -> true | { shape = Random; _ } -> false in
  if Option.is_some t.planner || List.exists planned t.tree_sets then D.converge_coordinates d ();
  let registry =
    Option.map
      (fun { bf; degree; seed } ->
        Mortar_plan.Registry.create
          ~ctx:(Mortar_plan.Place.ctx ~topo ~coords:(D.coordinates d) ~bf ~degree ~seed ())
          ())
      t.planner
  in
  let descs = Array.of_list t.tree_sets in
  let tree_sets = Array.map (tree_set d) descs in
  attach_sensors d ~queries:t.queries t.sensors;
  List.iter
    (fun q ->
      if q.tree_set < 0 || q.tree_set >= Array.length tree_sets then
        invalid_arg (Printf.sprintf "Scenario.build: %s uses no tree set %d" q.meta.name q.tree_set);
      let meta = { q.meta with degree = descs.(q.tree_set).degree } in
      let treeset = tree_sets.(q.tree_set) in
      D.at d q.at (fun () -> Peer.install_query (D.peer d meta.root) meta treeset))
    t.queries;
  let churn =
    match t.churn with
    | None -> []
    | Some c ->
      D.composed_churn d ~rng:(Mortar_util.Rng.create c.seed) ~from:c.from ~until:c.until
        ~protect:c.protect ~churn_period:c.churn_period ~churn_kills:c.churn_kills
        ~down_min:c.down_min ~down_max:c.down_max ~burst_period:c.burst_period
        ~burst_len:c.burst_len ~kill_period:c.kill_period ~kill_fraction:c.kill_fraction
        ~kill_len:c.kill_len ()
  in
  D.schedule_faults d (t.faults @ churn);
  { d; tree_sets; registry }
