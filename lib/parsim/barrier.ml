type slot = {
  gen : int Atomic.t;  (* rendezvous generations this party has reached *)
  parked : bool Atomic.t;  (* registered waiter: peers must signal *)
  token : bool Atomic.t;  (* a signal arrived since registering *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable spin_s : float;
  mutable parked_s : float;
  mutable parks : int;
}

type t = { slots : slot array; spins : bool }

(* Long enough that a rendezvous between shards on their own cores
   resolves without a syscall, short enough that a peer stalled in a
   long window does not cost a whole core. *)
let spin_budget_s = 1e-3

let create ~parties =
  if parties < 1 then invalid_arg "Barrier.create: parties must be >= 1";
  {
    slots =
      Array.init parties (fun _ ->
          {
            gen = Atomic.make 0;
            parked = Atomic.make false;
            token = Atomic.make false;
            lock = Mutex.create ();
            cond = Condition.create ();
            spin_s = 0.;
            parked_s = 0.;
            parks = 0;
          });
    spins = parties <= Domain.recommended_domain_count ();
  }

let spins t = t.spins

let wake t ~party =
  let s = t.slots.(party) in
  if Atomic.get s.parked then begin
    Mutex.lock s.lock;
    Atomic.set s.token true;
    Condition.signal s.cond;
    Mutex.unlock s.lock
  end

(* Spin for the budget, checking the clock every 64 relaxes. *)
let spin_until ready =
  let deadline = Unix.gettimeofday () +. spin_budget_s in
  let rec go i =
    if ready () then true
    else if i land 63 = 0 && Unix.gettimeofday () >= deadline then false
    else begin
      Domain.cpu_relax ();
      go (i + 1)
    end
  in
  go 1

let await t ~party ready =
  if not (ready ()) then begin
    let s = t.slots.(party) in
    let t0 = Unix.gettimeofday () in
    let ok = t.spins && spin_until ready in
    let t1 = if t.spins then Unix.gettimeofday () else t0 in
    s.spin_s <- s.spin_s +. (t1 -. t0);
    if not ok then begin
      let ok = ref false in
      while not !ok do
        (* Register, then re-check: a waker that changed state before
           our flag store is seen by [ready]; one after it sees the
           flag and leaves a token under the lock. *)
        Atomic.set s.token false;
        Atomic.set s.parked true;
        if ready () then ok := true
        else begin
          s.parks <- s.parks + 1;
          Mutex.lock s.lock;
          while not (Atomic.get s.token) do
            Condition.wait s.cond s.lock
          done;
          Mutex.unlock s.lock
        end;
        Atomic.set s.parked false
      done;
      s.parked_s <- s.parked_s +. (Unix.gettimeofday () -. t1)
    end
  end

let reached t g = Array.for_all (fun s -> Atomic.get s.gen >= g) t.slots

let rendezvous ?(poll = ignore) t ~party =
  let g = Atomic.get t.slots.(party).gen + 1 in
  Atomic.set t.slots.(party).gen g;
  Array.iteri (fun j _ -> if j <> party then wake t ~party:j) t.slots;
  await t ~party (fun () ->
      poll ();
      reached t g)

let spin_s t ~party = t.slots.(party).spin_s
let parked_s t ~party = t.slots.(party).parked_s
let parks t ~party = t.slots.(party).parks
let waited_s t ~party = spin_s t ~party +. parked_s t ~party
