(* Message reassembly, the one copy every receiver shares: which
   segments of a flow have arrived, how many, and how far the in-order
   prefix reaches. *)

type t = {
  nseg : int;
  bitmap : Bytes.t;
  mutable received : int;
  mutable cum : int;                    (* in-order segments from 0 *)
}

let create nseg =
  { nseg; bitmap = Bytes.make nseg '\000'; received = 0; cum = 0 }

(* True iff [seq] is in range and had not arrived before. *)
let mark t seq =
  if seq < 0 || seq >= t.nseg || Bytes.get t.bitmap seq = '\001' then false
  else begin
    Bytes.set t.bitmap seq '\001';
    t.received <- t.received + 1;
    while t.cum < t.nseg && Bytes.get t.bitmap t.cum = '\001' do
      t.cum <- t.cum + 1
    done;
    true
  end

let complete t = t.received = t.nseg
