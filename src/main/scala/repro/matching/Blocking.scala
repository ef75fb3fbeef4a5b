package repro.matching

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.Profiling

/** Candidate generation via token blocking (Frost pipeline step 2,
  * Section 1.2): records sharing a blocking token become candidate pairs.
  * Oversized blocks (stop-word tokens) are dropped via `maxBlockSize` —
  * the standard guard against quadratic blow-up. Tokens shorter than three
  * characters (articles, initials) never form blocks.
  */
object Blocking {

  private val shortestToken = 3

  /** Token blocking over the given attributes.
    *
    * @param records      DataFrame with `id` + string attributes
    * @param attrs        attributes contributing blocking tokens
    * @param maxBlockSize drop blocks with more members than this
    * @param knownVocab   if set, only these tokens may form blocks — models a
    *                     solution whose candidate generation was trained on a
    *                     specific vocabulary (out-of-vocabulary tokens are
    *                     invisible to it)
    * @return candidate pairs (a, b) with a < b, distinct
    */
  def tokenBlocking(
      records: DataFrame,
      attrs: Seq[String],
      maxBlockSize: Int = 50,
      knownVocab: Option[Set[String]] = None,
  ): DataFrame = {
    require(attrs.nonEmpty, "need at least one blocking attribute")
    // Broadcast, so that a task reading a table built on the blocks does not
    // carry and deserialize the vocabulary.
    val isKnown = knownVocab.map { vocab =>
      val known = records.sparkSession.sparkContext.broadcast(vocab)
      udf((t: String) => known.value.contains(t))
    }
    val keyed = attrs.map { a =>
      val tokens = records
        .select(col("id"), Profiling.explodeTokens(col(a)).as("token"))
        .filter(length(col("token")) >= shortestToken)
      isKnown.fold(tokens)(f => tokens.filter(f(col("token"))))
    }.reduce(_ union _).distinct()

    val blockSizes = keyed.groupBy(col("token")).agg(count(lit(1)).as("bs"))
    val pruned = keyed.join(blockSizes.filter(col("bs") <= maxBlockSize), Seq("token"))

    val l = pruned.select(col("token"), col("id").as("a"))
    val r = pruned.select(col("token").as("token2"), col("id").as("b"))
    l.join(r, l("token") === r("token2") && col("a") < col("b"))
      .select(col("a"), col("b"))
      .distinct()
  }
}
