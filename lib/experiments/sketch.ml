(* Sketch aggregates vs the exact time-division path: the accuracy /
   bandwidth gate.

   One population of hosts publishes a skewed metric stream; the same
   striped multipath tree set (same topology seed, same planner output)
   carries either

   - exact: one Union query shipping every projected value to the root,
     from which the subscriber computes count, distinct count, second
     moment and hot-key frequencies exactly — the cheapest exact
     representation, since one value list answers all four questions; or
   - sketch: three fixed-size synopses — Count-Min (total + hot-key
     point queries), HyperLogLog (distinct count) and AGMS (second
     moment) — whose partials stop growing once dense, no matter how
     many tuples fed them.

   Both deployments run under the same composed churn schedule (crash /
   recover, bursty stub loss, correlated stub kills — the PR 1 fault
   machinery), generated from the same dedicated RNG so the schedules
   are identical event-for-event. Accuracy is the sketch answer's mean
   relative error against the exact path's delivered answer over the
   steady window range; bandwidth is total in-network traffic over the
   same range.

   CI greps the "sketch gate:" line: count and distinct-count error must
   stay within the configured epsilon while the exact path spends at
   least [bw_factor] times the sketch path's bandwidth. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Query = Mortar_core.Query
module Value = Mortar_core.Value
module Window = Mortar_core.Window
module Expr = Mortar_core.Expr
module Op = Mortar_core.Op
module Cm = Mortar_sketch.Count_min

type params = {
  hosts : int;
  transits : int;
  stubs : int;
  bf : int;
  degree : int;
  window : float;
  period : float;
  domain : int; (* distinct-value universe, Zipf(1)-skewed *)
  nhot : int; (* hottest keys tracked for Count-Min point queries *)
  install_at : float;
  steady_lo : float;
  steady_hi : float;
  run_end : float;
  churn_from : float;
  churn_until : float;
  cm_depth : int;
  cm_width : int;
  hll_b : int;
  agms_rows : int;
  agms_cols : int;
  sk_seed : int;
  eps : float; (* count / distinct-count gate *)
  bw_factor : float; (* required exact/sketch bandwidth ratio *)
}

let params ~quick =
  if quick then
    {
      hosts = 400;
      transits = 4;
      stubs = 8;
      bf = 8;
      degree = 2;
      window = 2.0;
      period = 0.05;
      domain = 64;
      nhot = 5;
      install_at = 1.0;
      steady_lo = 6.0;
      steady_hi = 20.0;
      run_end = 22.0;
      churn_from = 8.0;
      churn_until = 18.0;
      cm_depth = 4;
      cm_width = 16;
      hll_b = 8;
      agms_rows = 3;
      agms_cols = 16;
      sk_seed = 97;
      eps = 0.10;
      bw_factor = 2.0;
    }
  else
    {
      hosts = 10_000;
      transits = 8;
      stubs = 34;
      bf = 16;
      degree = 2;
      window = 8.0;
      period = 0.064;
      domain = 2000;
      nhot = 5;
      install_at = 1.0;
      steady_lo = 8.0;
      steady_hi = 40.0;
      run_end = 42.0;
      churn_from = 10.0;
      churn_until = 36.0;
      cm_depth = 4;
      cm_width = 32;
      hll_b = 11;
      agms_rows = 5;
      agms_cols = 16;
      sk_seed = 97;
      eps = 0.05;
      bw_factor = 2.0;
    }

(* ------------------------------------------------------------------ *)
(* Workload: host h's k-th tuple carries a globally unique id and a
   value drawn Zipf(1)-skewed from [0, domain) by seeded hashing — a
   pure function of (host, k), identical in both deployments
   ({!Scenario.Zipf_record}). Kept under these names because
   perfbench/workloads.ml calls them. *)

let zipf_cdf = Scenario.zipf_cdf

let draw_value = Scenario.draw_value

(* ------------------------------------------------------------------ *)
(* Delivered answers go to a {!Ledger} keyed by the root's slot. Each
   entry keeps what the scorer reads, never the raw value: the exact
   path's tuple list is hosts x tuples-per-window long. The ledger is
   created before the run and recorded into only from the root host's
   delivery callback. *)

type exact_row = { xcount : float; xdistinct : float; xf2 : float; xhot : float array }

type cm_row = { ctotal : float; chot : float array }

type answer = Exact of exact_row | Cm of cm_row | Estimate of float

(* [hold]: the longest the root can hold a window after it closes. The
   root's eviction cap runs from a window's first arrival there (its own
   source summary, at the close) for min_timeout + tree height x
   level_wait (Peer.config). *)
type side = { d : D.t; ledger : answer Ledger.t; hold : float }

let project field = [ Expr.Map [ ("k", Expr.Field field) ] ]

let setup ~mode p =
  let root = 0 in
  let install name op =
    {
      Scenario.meta =
        Query.make_meta ~name ~source:"metric" ~pre:(project "v") ~op
          ~window:(Window.tumbling p.window) ~root ~total_nodes:p.hosts ();
      tree_set = 0;
      at = p.install_at;
    }
  in
  let s =
    Scenario.map_tree_sets
      (fun ts -> { ts with bf = p.bf; degree = p.degree })
      (Scenario.peer_count ~seed:9090 ~hosts:p.hosts)
  in
  (* Identical composed churn in both deployments: the schedule is a
     pure function of (topology, churn seed). *)
  let { Scenario.d; tree_sets; _ } =
    Scenario.build
      {
        s with
        topology = { s.topology with transits = p.transits; stubs = p.stubs };
        sensors =
          [
            { stream = "metric"; period = p.period; hosts = All;
              value = Zipf_record { domain = p.domain } };
          ];
        queries =
          (match mode with
          | `Exact -> [ install "xunion" (Op.Union { cap = 0 }) ]
          | `Sketch ->
            [
              install "scm"
                (Op.Sketch_count_min { depth = p.cm_depth; width = p.cm_width; seed = p.sk_seed });
              install "shll" (Op.Sketch_hll { b = p.hll_b; seed = p.sk_seed });
              install "sagms"
                (Op.Sketch_agms { rows = p.agms_rows; cols = p.agms_cols; seed = p.sk_seed });
            ]);
        churn =
          Some
            { seed = 31337; from = p.churn_from; until = p.churn_until; protect = [ root ];
              churn_period = 3.0; churn_kills = 2; down_min = 2.0; down_max = 5.0;
              burst_period = 5.0; burst_len = 2.5;
              kill_period = 8.0; kill_fraction = 0.25; kill_len = 3.0 };
      }
  in
  let ledger = Ledger.create [ "xunion"; "scm"; "shll"; "sagms" ] in
  Peer.on_result (D.peer d root) (fun (r : Peer.result) ->
      let answer =
        match (r.Peer.query, r.Peer.value) with
        | "xunion", Value.List vals ->
          let freq = Hashtbl.create 1024 in
          List.iter
            (fun v ->
              let x = Value.to_int (Value.field v "k") in
              Hashtbl.replace freq x (1 + Option.value (Hashtbl.find_opt freq x) ~default:0))
            vals;
          Some
            (Exact
               {
                 xcount = float_of_int (List.length vals);
                 xdistinct = float_of_int (Hashtbl.length freq);
                 xf2 =
                   Hashtbl.fold (fun _ c acc -> acc +. (float_of_int c *. float_of_int c)) freq 0.0;
                 xhot =
                   Array.init p.nhot (fun i ->
                       float_of_int (Option.value (Hashtbl.find_opt freq i) ~default:0));
               })
        | "scm", Value.Str packed ->
          let s = Cm.of_string packed in
          let hot =
            Array.init p.nhot (fun i -> float_of_int (Cm.query s ~key:(Op.sketch_key (Value.Int i))))
          in
          Some (Cm { ctotal = float_of_int (Cm.total s); chot = hot })
        | ("shll" | "sagms"), Value.Float est -> Some (Estimate est)
        | _ -> None
      in
      Option.iter
        (Ledger.record ledger ~query:r.Peer.query ~bucket:r.Peer.slot ~count:r.Peer.count
           ~at:(D.now d))
        answer);
  let height =
    Array.fold_left
      (fun h tr -> max h (Mortar_overlay.Tree.height tr))
      0 (Mortar_overlay.Treeset.trees tree_sets.(0))
  in
  { d; ledger; hold = Peer.min_timeout +. (float_of_int height *. Peer.default_config.level_wait) }

(* ------------------------------------------------------------------ *)

(* Slot s spans [install_at + s w, install_at + (s + 1) w) at the root.
   A slot is scored when it lies inside [steady_lo, steady_hi] and closes
   at least [hold] before [run_end], so every scored window can deliver
   before the run stops. Returns the inclusive slot range. *)
let steady_slots p ~hold =
  let slot_at t = (t -. p.install_at) /. p.window in
  ( int_of_float (Float.ceil (slot_at p.steady_lo)),
    int_of_float (Float.floor (slot_at (Float.min p.steady_hi (p.run_end -. hold)))) - 1 )

let mean_of slots get = Mortar_util.Stats.mean (Array.of_list (List.filter_map get slots))

(* Mean relative error of (exact, estimate) pairs over the slots where
   both sides delivered an answer. *)
let mean_over slots pairs =
  mean_of slots (fun slot ->
      match pairs slot with
      | Some (x, e) when x > 0.0 -> Some (Float.abs (e -. x) /. x)
      | _ -> None)

let run ~quick =
  let p = params ~quick in
  let x = setup ~mode:`Exact p in
  D.run_until x.d p.run_end;
  let s = setup ~mode:`Sketch p in
  D.run_until s.d p.run_end;
  let lo, hi = steady_slots p ~hold:x.hold in
  let slots = List.init (max 0 (hi - lo + 1)) (fun i -> lo + i) in
  (* Each side's best answer per slot, by the ledger's policy. *)
  let exact_at slot =
    match Ledger.best x.ledger "xunion" slot with
    | Some { count; data = Exact r; _ } -> Some (count, r)
    | _ -> None
  in
  let cm_at slot =
    match Ledger.best s.ledger "scm" slot with
    | Some { count; data = Cm r; _ } -> Some (count, r)
    | _ -> None
  in
  let estimate_at query slot =
    match Ledger.best s.ledger query slot with
    | Some { data = Estimate e; _ } -> Some e
    | _ -> None
  in
  (* The two deployments lose different messages (same fault schedule,
     independent per-message draws), so raw delivered totals inherit a
     cross-deployment delivery gap that has nothing to do with sketch
     error — Count-Min's row sum is exact for what it ingested. Compare
     counts per participating host instead: subtree loss hits numerator
     and denominator together and cancels, leaving actual approximation
     error. Completeness is reported separately, nothing is hidden. *)
  let count_err =
    mean_over slots (fun slot ->
        match (exact_at slot, cm_at slot) with
        | Some (xn, xr), Some (cn, cr) when xn > 0 && cn > 0 ->
          Some (xr.xcount /. float_of_int xn, cr.ctotal /. float_of_int cn)
        | _ -> None)
  in
  let versus query get =
    mean_over slots (fun slot ->
        match (exact_at slot, estimate_at query slot) with
        | Some (_, xr), Some est -> Some (get xr, est)
        | _ -> None)
  in
  let distinct_err = versus "shll" (fun xr -> xr.xdistinct) in
  let f2_err = versus "sagms" (fun xr -> xr.xf2) in
  (* Hot-key point queries: mean over keys of mean-over-slots error. *)
  let hot_err =
    let per_key i =
      mean_over slots (fun slot ->
          match (exact_at slot, cm_at slot) with
          | Some (_, xr), Some (_, cr) -> Some (xr.xhot.(i), cr.chot.(i))
          | _ -> None)
    in
    List.init p.nhot per_key
    |> List.filter (fun e -> not (Float.is_nan e))
    |> Array.of_list |> Mortar_util.Stats.mean
  in
  let xmean get = mean_of slots (fun sl -> Option.map get (exact_at sl)) in
  let cmean get = mean_of slots (fun sl -> Option.map get (cm_at sl)) in
  let emean query = mean_of slots (estimate_at query) in
  let xbw = D.mbps x.d p.steady_lo p.steady_hi in
  let sbw = D.mbps s.d p.steady_lo p.steady_hi in
  let compl side query =
    Ledger.completeness side.ledger ~queries:[ (query, fun _ -> p.hosts) ] (Ledger.Buckets (lo, hi))
  in
  let xcompl = compl x "xunion" in
  let scompl = compl s "shll" in
  let per_host n total = total /. float_of_int (max 1 n) in
  let hot_mean hot = Array.fold_left ( +. ) 0.0 hot /. float_of_int p.nhot in
  Common.table
    ~columns:[ "metric"; "exact"; "sketch"; "rel err" ]
    (fun () ->
      [
        [
          "count/host";
          Common.cell_f (xmean (fun (n, r) -> per_host n r.xcount));
          Common.cell_f (cmean (fun (n, r) -> per_host n r.ctotal));
          Common.cell_pct count_err;
        ];
        [
          "distinct";
          Common.cell_f (xmean (fun (_, r) -> r.xdistinct));
          Common.cell_f (emean "shll");
          Common.cell_pct distinct_err;
        ];
        [
          "f2";
          Common.cell_f (xmean (fun (_, r) -> r.xf2));
          Common.cell_f (emean "sagms");
          Common.cell_pct f2_err;
        ];
        [
          "hot keys";
          Common.cell_f (xmean (fun (_, r) -> hot_mean r.xhot));
          Common.cell_f (cmean (fun (_, r) -> hot_mean r.chot));
          Common.cell_pct hot_err;
        ];
      ]);
  Printf.printf "\n";
  Common.table
    ~columns:[ "path"; "Mb/s"; "completeness" ]
    (fun () ->
      [
        [ "exact"; Common.cell_f xbw; Common.cell_pct xcompl ];
        [ "sketch"; Common.cell_f sbw; Common.cell_pct scompl ];
      ]);
  let saving = if sbw > 0.0 then xbw /. sbw else nan in
  Printf.printf "\nbandwidth saving: %.2fx (gate needs >= %.2fx), eps = %g\n" saving
    p.bw_factor p.eps;
  (* The CI gate greps this exact line. *)
  let ok =
    (not (Float.is_nan count_err))
    && (not (Float.is_nan distinct_err))
    && count_err <= p.eps && distinct_err <= p.eps
    && saving >= p.bw_factor
  in
  Printf.printf "sketch gate: %s\n" (if ok then "ok" else "FAIL")

let experiment =
  {
    Common.id = "sketch";
    title = "Sketch aggregates vs exact time-division: accuracy and bandwidth under churn";
    paper_claim =
      "beyond the paper (SS8 names duplicate-insensitive synopses as the alternative to \
       time-division): Count-Min / AGMS / HyperLogLog partials stop growing once dense, so \
       count, distinct-count, F2 and hot-key queries ride the same striped multipath trees \
       at a fraction of the exact path's bandwidth while staying within a few percent of \
       its delivered answers, churn included";
    run;
  }

let register () = Common.register experiment
