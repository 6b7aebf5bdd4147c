(* The two round types of the protocol, as data.

   Conversation rounds (§3-4) carry exchange payloads to the dead drops;
   dialing rounds (§5) carry invitations to the invitation drops.  The
   supervisor logic — deadlines, aborts, bounded retries, ledger charges
   — is identical for both, so [Network.run] takes the kind as a value
   instead of existing twice. *)

type kind = Conversation | Dialing

let is_dialing = function Conversation -> false | Dialing -> true
