package repro.core

import scala.collection.mutable

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** Clustering comparisons as Spark joins and aggregations, the references
  * the driver-side [[MetricsEngine.confusionMatrix]] is checked against.
  */
object ReferenceClusterings {

  /** Intersection clustering of two clusterings over the same records:
    * (id, cluster = (expCluster, goldCluster) pair key). Returned as
    * (id: Long, ecluster: Long, gcluster: Long).
    */
  def intersection(exp: DataFrame, gold: DataFrame): DataFrame =
    exp.select(col("id"), col("cluster").as("ecluster"))
      .join(gold.select(col("id").as("gid"), col("cluster").as("gcluster")), col("id") === col("gid"))
      .select(col("id"), col("ecluster"), col("gcluster"))

  /** [[MetricsEngine.confusionMatrix]] from one aggregation: the sizes c of
    * the (experiment, gold) cluster groups of the intersection, collected to
    * the driver (at most `n` of them). TP is Σ C(c, 2); the experiment pairs
    * are Σ over experiment clusters of C(Σ c, 2), and the gold pairs the
    * same over gold clusters.
    *
    * @throws IllegalArgumentException if the clusterings do not join on
    *         exactly `n` records, naming both counts
    */
  def confusionMatrix(exp: DataFrame, gold: DataFrame, n: Long): ConfusionMatrix = {
    val groups = intersection(exp, gold)
      .groupBy(col("ecluster"), col("gcluster")).count().collect()
    val expSizes = mutable.HashMap.empty[Any, Long].withDefaultValue(0L)
    val goldSizes = mutable.HashMap.empty[Any, Long].withDefaultValue(0L)
    var joined = 0L
    var tp = 0L
    groups.foreach { r =>
      val c = r.getLong(2)
      joined += c
      tp += ConfusionMatrix.pairsOf(c)
      expSizes(r.get(0)) += c
      goldSizes(r.get(1)) += c
    }
    require(joined == n, s"the clusterings join on $joined records, but n is $n")
    val ep = expSizes.valuesIterator.map(ConfusionMatrix.pairsOf).sum
    val gp = goldSizes.valuesIterator.map(ConfusionMatrix.pairsOf).sum
    val total = ConfusionMatrix.pairsOf(n)
    ConfusionMatrix(tp, ep - tp, gp - tp, total - ep - gp + tp)
  }
}
